// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation section (§5). Each benchmark regenerates its experiment
// at SmallScale via internal/bench and reports the headline metrics; run
// cmd/pbg-bench -scale medium for the fuller numbers.
package pbg

import (
	"testing"

	"pbg/internal/bench"
)

func reportRows(b *testing.B, rep *bench.Report, metric string) {
	b.Helper()
	for _, row := range rep.Rows {
		if v, ok := row.Values[metric]; ok {
			b.ReportMetric(v, metric+":"+sanitize(row.Label))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '(' || r == ')' || r == '/':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkTable1LiveJournal regenerates Table 1 (left): LiveJournal link
// prediction for DeepWalk, MILE and PBG.
func BenchmarkTable1LiveJournal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table1LiveJournal(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "MRR")
		}
	}
}

// BenchmarkTable1YouTube regenerates Table 1 (right): node classification
// micro/macro F1.
func BenchmarkTable1YouTube(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table1YouTube(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "Micro-F1")
		}
	}
}

// BenchmarkTable2FB15k regenerates Table 2: FB15k raw/filtered MRR for
// PBG-as-TransE and PBG-as-ComplEx.
func BenchmarkTable2FB15k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table2FB15k(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "MRR-filt")
		}
	}
}

// BenchmarkTable3Partitions regenerates Table 3 (left): the Freebase
// partition sweep (memory ↓ with partitions, MRR flat).
func BenchmarkTable3Partitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table3Partitions(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "mem_MB")
			reportRows(b, rep, "MRR")
		}
	}
}

// BenchmarkTable3Distributed regenerates Table 3 (right): the Freebase
// multi-machine sweep.
func BenchmarkTable3Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table3Distributed(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "time_s")
		}
	}
}

// BenchmarkTable4Partitions regenerates Table 4 (left): the Twitter
// partition sweep.
func BenchmarkTable4Partitions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table4Partitions(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "mem_MB")
		}
	}
}

// BenchmarkTable4Distributed regenerates Table 4 (right): the Twitter
// multi-machine sweep.
func BenchmarkTable4Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Table4Distributed(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "time_s")
		}
	}
}

// BenchmarkFigure1Ordering regenerates the Figure 1 ordering ablation
// (inside-out vs alternatives: swaps and final MRR).
func BenchmarkFigure1Ordering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure1Ordering(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "swaps")
		}
	}
}

// BenchmarkFigure4NegativesSweep regenerates Figure 4: throughput vs number
// of negatives, batched vs unbatched.
func BenchmarkFigure4NegativesSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.Figure4Negatives(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "edges/s")
		}
	}
}

// BenchmarkFigure5LearningCurves regenerates Figure 5: MRR vs wallclock for
// PBG / DeepWalk / MILE.
func BenchmarkFigure5LearningCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := bench.Figure5LearningCurves(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range curves {
				if n := len(c.MRR); n > 0 {
					b.ReportMetric(c.MRR[n-1], "finalMRR:"+sanitize(c.Label))
				}
			}
		}
	}
}

// BenchmarkFigure6FreebaseCurves regenerates Figure 6: distributed learning
// curves on the Freebase stand-in.
func BenchmarkFigure6FreebaseCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := bench.Figure6FreebaseCurves(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range curves {
				if n := len(c.MRR); n > 0 {
					b.ReportMetric(c.MRR[n-1], "finalMRR:"+sanitize(c.Label))
				}
			}
		}
	}
}

// BenchmarkFigure7TwitterCurves regenerates Figure 7: distributed learning
// curves on the Twitter stand-in.
func BenchmarkFigure7TwitterCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := bench.Figure7TwitterCurves(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, c := range curves {
				if n := len(c.MRR); n > 0 {
					b.ReportMetric(c.MRR[n-1], "finalMRR:"+sanitize(c.Label))
				}
			}
		}
	}
}

// BenchmarkOrderingSweep regenerates the budget-aware ordering validation:
// projected swaps and measured forced evictions for inside_out vs
// budget_aware at three partition-buffer sizes.
func BenchmarkOrderingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.OrderingSweep(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "proj_swaps")
			reportRows(b, rep, "forced_evicts")
		}
	}
}

// BenchmarkAblationAlpha sweeps the §3.1 negative-sampling mixture.
func BenchmarkAblationAlpha(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationAlpha(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "MRR-uniform")
		}
	}
}

// BenchmarkAblationComplExPartitioning probes the §5.4.2 ComplEx
// instability under partitioned training.
func BenchmarkAblationComplExPartitioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationComplExPartitioning(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "MRR-std")
		}
	}
}

// BenchmarkServeSweep load-tests the serving layer (exact vs IVF vs rpc
// top-K) in short mode, reporting QPS and measured recall@10.
func BenchmarkServeSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.ServeSweep(bench.SmallScale, true)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "QPS")
			reportRows(b, rep, "recall@10")
		}
	}
}

// BenchmarkAblationStratum probes the §4.1 stratified sub-epoch option.
func BenchmarkAblationStratum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rep, err := bench.AblationStratum(bench.SmallScale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportRows(b, rep, "MRR-after-1-epoch")
		}
	}
}
