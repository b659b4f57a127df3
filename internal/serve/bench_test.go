package serve_test

import (
	"testing"

	"pbg/internal/rng"
	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
)

// BenchmarkTopKBatch32 times one Server.TopK call on a shared trained fixture
// of the repository benchmark's serve_topk shape (20 000 nodes, d = 32, four
// partitions): the exact scan and the IVF scan at the batch size a loaded
// client sends (one op = 32 queries), both over uniformly drawn sources — a
// batch of 32 distinct queries — and over sources drawn Zipf(1.1) as the
// benchmark's are, which repeats the hot ones inside a batch, and IVF at
// batch 1 (one op = one query, the same scan code with a single query row).
// rows/query is what a query had scored for it and distinct/batch how many
// different questions a batch asked; IVF's speed over exact at batch 32
// tracks the ratio of rows, because both paths score a block with one GEMM
// against every query that wants it.
func BenchmarkTopKBatch32(b *testing.B) {
	f := servetest.Shared(b, servetest.FixtureConfig{Nodes: 20000, Dim: 32, Epochs: 2})
	s, err := serve.Open(f.Dir, f.ServerConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		batch int
		exact bool
		zipf  bool
	}{
		{"exact", 32, true, false},
		{"exact_zipf", 32, true, true},
		{"ivf", 32, false, false},
		{"ivf_zipf", 32, false, true},
		{"ivf_b1", 1, false, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Enough distinct batches that consecutive ops probe different lists.
			stream := f.Requests(17, 64*bc.batch, 10, bc.exact)
			if bc.zipf {
				// Popularity rank to id through a seeded permutation, so the
				// hot sources are spread over every partition.
				r := rng.New(17)
				perm := make([]int, f.Cfg.Nodes)
				r.Perm(perm)
				z := rng.NewZipf(f.Cfg.Nodes, 1.1)
				for i := range stream {
					stream[i].SrcID = int32(perm[z.Sample(r)])
				}
			}
			scanned, distinct := 0, 0
			seen := map[int32]bool{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lo := i % 64 * bc.batch
				res, err := s.TopK(stream[lo : lo+bc.batch])
				if err != nil {
					b.Fatal(err)
				}
				for j := range res {
					scanned += res[j].Scanned
				}
			}
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				clear(seen)
				for _, r := range stream[i%64*bc.batch:][:bc.batch] {
					seen[r.SrcID] = true
				}
				distinct += len(seen)
			}
			b.ReportMetric(float64(scanned)/float64(b.N*bc.batch), "rows/query")
			b.ReportMetric(float64(distinct)/float64(b.N), "distinct/batch")
		})
	}
}
