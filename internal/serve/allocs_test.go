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
// request. Plan, CSR, gather and GEMM scratch all come from the pooled
// workspace.
func TestIVFSteadyStateAllocs(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	reqs := mixedIVFBatch(f, 909, 32)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := s.TopK(reqs); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(1 + 2*len(reqs)); allocs > want {
		t.Fatalf("warm IVF batch of %d made %.0f allocations, want %.0f (results only)", len(reqs), allocs, want)
	}
}
