// pbg-lint runs the repo's static-analysis suite (internal/lint): custom
// analyzers that machine-enforce the invariants the compiler can't see —
// zero-alloc //pbg:hotpath functions, no ordering decisions on map
// iteration, no blocking I/O under a mutex, obs handles resolved at
// construction, paired store Acquire/Release, no silently dropped
// teardown errors, and //go:norace on nothing but the allowlisted benign
// HOGWILD race.
//
// Usage:
//
//	pbg-lint [-list] [-only analyzer[,analyzer]] [packages]
//
// Packages default to ./... resolved against the enclosing module. Exit
// status is 0 with no findings, 1 with findings, 2 on a load/usage error.
// Findings are suppressed by an explanatory directive on the same line or
// the line above:
//
//	//lint:ignore <analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pbg/internal/lint"
)

func main() {
	listFlag := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	if *listFlag {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*only, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(os.Stderr, "pbg-lint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbg-lint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbg-lint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pbg-lint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
