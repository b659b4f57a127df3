package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// cmpRow compares one end-to-end metric on one workload between a parent
// set of runs (A) and a change (B).
type cmpRow struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // first quartile, median, third quartile
	NA, NB                 int
	// Change is B's median against A's as a share of A's, signed so that
	// positive is better. SpreadA is A's inter-quartile distance as a share
	// of its median: the noise floor of the parent's own runs.
	Change, SpreadA, Bound float64
	// Wins and Pairs count, when both sides have the same runs in the same
	// order, the pairs in which B was better; ties count for neither.
	Wins, Pairs int
	Verdict     string
}

// compareRuns builds one row per (workload, end-to-end metric) from the
// untraced runs of both sides, in BENCHMARK.json order.
func compareRuns(spec *benchSpec, a, b []runRecord) []cmpRow {
	values := func(recs []runRecord, workload, metric string) []float64 {
		var out []float64
		for _, rec := range recs {
			if rec.Workload == workload && rec.Trace == 0 {
				if v, ok := rec.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	var rows []cmpRow
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			row := cmpRow{Workload: w.Name, Metric: m.Name, Unit: m.Unit, NA: len(va), NB: len(vb), Bound: m.Bound}
			row.A[0], row.A[1], row.A[2] = quartiles(va)
			row.B[0], row.B[1], row.B[2] = quartiles(vb)
			sign := 1.0
			if m.Better == "lower" {
				sign = -1
			}
			if row.A[1] != 0 {
				row.Change = sign * (row.B[1] - row.A[1]) / math.Abs(row.A[1])
			}
			row.SpreadA = spreadShare(va)
			if len(va) == len(vb) {
				for i := range va {
					if d := sign * (vb[i] - va[i]); d != 0 {
						row.Pairs++
						if d > 0 {
							row.Wins++
						}
					}
				}
			}
			row.Verdict = verdict(row)
			rows = append(rows, row)
		}
	}
	return rows
}

// minRuns is the fewest runs per side from which quartiles mean anything.
const minRuns = 5

// verdict applies the rules of the choosing-metrics guide. A metric whose
// parent runs spread wider than its bound, or that has too few runs to have
// a spread, cannot be told apart from noise: unresolved. Worse than the
// bound: regressed. Better by more than the parent's own spread, and winning
// at least nine tenths of the pairs when the runs are paired: improved.
// Otherwise unchanged.
func verdict(r cmpRow) string {
	switch {
	case r.NA < minRuns || r.NB < minRuns || r.SpreadA > r.Bound:
		return "unresolved"
	case r.Change < -r.Bound:
		return "regressed"
	case r.Change > r.SpreadA && (r.Pairs == 0 || float64(r.Wins) >= 0.9*float64(r.Pairs)):
		return "improved"
	}
	return "unchanged"
}

func printComparison(w io.Writer, rows []cmpRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1/median/q3 (n)\tB q1/median/q3 (n)\tchange\tA spread\tbound\twins\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g/%.5g/%.5g (%d)\t%.5g/%.5g/%.5g (%d)\t%+.2f%%\t%.2f%%\t%.0f%%\t%d/%d\t%s\n",
			r.Workload, r.Metric, r.Unit, r.A[0], r.A[1], r.A[2], r.NA, r.B[0], r.B[1], r.B[2], r.NB,
			100*r.Change, 100*r.SpreadA, 100*r.Bound, r.Wins, r.Pairs, r.Verdict)
	}
	_ = tw.Flush() // a report that cannot be written shows as missing output
	fmt.Fprintln(w, "change is B's median against A's, positive = better; wins count pairs (same position in both files) B won")
}

// compareFiles is -compare a.json b.json.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout io.Writer) error {
	a, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	b, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	if a.Fingerprint["cpu"] != b.Fingerprint["cpu"] || a.Fingerprint["nproc"] != b.Fingerprint["nproc"] {
		fmt.Fprintf(stdout, "warning: the two files come from different machines (%v vs %v)\n", a.Fingerprint, b.Fingerprint)
	}
	return reportComparison(spec, a.Runs, b.Runs, stdout)
}

// reportComparison prints the comparison of two sets of runs and fails when
// a metric regressed.
func reportComparison(spec *benchSpec, a, b []runRecord, stdout io.Writer) error {
	rows := compareRuns(spec, a, b)
	printComparison(stdout, rows)
	for _, row := range rows {
		if row.Verdict == "regressed" {
			return fmt.Errorf("%s on %s regressed", row.Metric, row.Workload)
		}
	}
	return nil
}
