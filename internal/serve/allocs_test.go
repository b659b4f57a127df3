//go:build !race

package serve_test

import (
	"testing"

	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
)

// The race detector's instrumentation allocates and makes sync.Pool drop
// items at random, so the allocation count is pinned on plain builds only.

// TestIVFSteadyStateAllocs pins that a warm IVF batch allocates its results
// and nothing else: the result slice plus an id and a score slice per
// request — the same for a request answered from a duplicate's result, which
// gets slices of its own. Plan, CSR, dedupe table, any materialised block and
// GEMM scratch all come from the pooled workspace. Under cos the comparator's
// Prepare returns a norms slice per call (the model API has no way to hand it
// a buffer), so each prepared block — the queries, a centroid block per
// partition, a probed list — adds one; nothing else does.
func TestIVFSteadyStateAllocs(t *testing.T) {
	for _, cmp := range []string{"dot", "cos"} {
		f := servetest.Shared(t, servetest.FixtureConfig{Comparator: cmp})
		s := openServer(t, f)
		if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		reqs := mixedIVFBatch(f, 909, 32)
		for i := 8; i < 20; i++ {
			reqs[i] = reqs[i%4] // twelve askers of four of the questions
		}
		want := float64(1 + 2*len(reqs))
		if cmp == "cos" {
			want += float64(1 + f.Cfg.Partitions + st.IndexLists)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.TopK(reqs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > want {
			t.Fatalf("%s: warm IVF batch of %d made %.0f allocations, want %.0f (results only)", cmp, len(reqs), allocs, want)
		}
	}
}
