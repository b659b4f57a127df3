// Command pbg-bench regenerates the paper's tables and figures on the
// synthetic dataset stand-ins and prints them in the same row structure the
// paper reports.
//
// Usage:
//
//	pbg-bench -exp all -scale small
//	pbg-bench -exp table3 -scale medium
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pbg/internal/bench"
	"pbg/internal/eval"
)

func main() {
	expFlag := flag.String("exp", "all", "experiment id: all, table1, table2, table3, table4, figure1, figure4, figure5, figure6, figure7, ordering, ablations, serve, codec")
	scaleFlag := flag.String("scale", "small", "small or medium")
	shortFlag := flag.Bool("short", false, "CI-sized runs where an experiment supports it (currently: serve, codec)")
	flag.Parse()

	var scale bench.Scale
	switch *scaleFlag {
	case "small":
		scale = bench.SmallScale
	case "medium":
		scale = bench.MediumScale
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	ran := 0

	report := func(rep *bench.Report, cols []string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep.Format(cols))
		ran++
	}
	curves := func(cs []*eval.Curve, err error, title string) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("== %s ==\n", title)
		for _, c := range cs {
			fmt.Println(c.String())
		}
		ran++
	}

	if all || want["table1"] {
		rep, err := bench.Table1LiveJournal(scale)
		report(rep, []string{"MRR", "MR", "Hits@10", "mem_MB"}, err)
		rep, err = bench.Table1YouTube(scale)
		report(rep, []string{"Micro-F1", "Macro-F1"}, err)
	}
	if all || want["table2"] {
		rep, err := bench.Table2FB15k(scale)
		report(rep, []string{"MRR-raw", "MRR-filt", "Hits@10"}, err)
	}
	if all || want["table3"] {
		rep, err := bench.Table3Partitions(scale)
		report(rep, []string{"MRR", "Hits@10", "time_s", "mem_MB"}, err)
		rep, err = bench.Table3Distributed(scale)
		report(rep, []string{"MRR", "Hits@10", "time_s", "mem_MB"}, err)
	}
	if all || want["table4"] {
		rep, err := bench.Table4Partitions(scale)
		report(rep, []string{"MRR", "Hits@10", "time_s", "mem_MB"}, err)
		rep, err = bench.Table4Distributed(scale)
		report(rep, []string{"MRR", "Hits@10", "time_s", "mem_MB"}, err)
	}
	if all || want["figure1"] {
		rep, err := bench.Figure1Ordering(scale)
		report(rep, []string{"MRR", "Hits@10", "swaps", "IO/epoch", "invariant"}, err)
	}
	if all || want["figure4"] {
		rep, err := bench.Figure4Negatives(scale)
		report(rep, []string{"Bn", "edges/s"}, err)
	}
	if all || want["figure5"] {
		cs, err := bench.Figure5LearningCurves(scale)
		curves(cs, err, "figure5: LiveJournal learning curves (paper Figure 5)")
	}
	if all || want["figure6"] {
		cs, err := bench.Figure6FreebaseCurves(scale)
		curves(cs, err, "figure6: Freebase distributed learning curves (paper Figure 6)")
	}
	if all || want["figure7"] {
		cs, err := bench.Figure7TwitterCurves(scale)
		curves(cs, err, "figure7: Twitter distributed learning curves (paper Figure 7)")
	}
	if all || want["ordering"] {
		rep, err := bench.OrderingSweep(scale)
		report(rep, []string{"proj_swaps", "forced_evicts", "iowait%", "edges/s", "order_ms"}, err)
	}
	if all || want["ablations"] {
		rep, err := bench.AblationAlpha(scale)
		report(rep, []string{"MRR-uniform", "MRR-prevalence"}, err)
		rep, err = bench.AblationComplExPartitioning(scale)
		report(rep, []string{"MRR-mean", "MRR-std"}, err)
		rep, err = bench.AblationStratum(scale)
		report(rep, []string{"MRR-after-1-epoch", "IO/epoch"}, err)
	}
	if all || want["serve"] {
		rep, err := bench.ServeSweep(scale, *shortFlag)
		report(rep, []string{"QPS", "xexact_b32", "p99_ms", "recall@10", "rows/query"}, err)
	}
	if all || want["codec"] {
		rep, err := bench.CodecSweep(scale, *shortFlag)
		report(rep, []string{"bytes/row", "xfp32", "shard_MB", "write_MB/s", "read_MB/s", "lookahead"}, err)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *expFlag)
		os.Exit(2)
	}
}
