package serve_test

import (
	"testing"

	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
)

// BenchmarkTopKBatch32 times one Server.TopK call on a shared trained
// fixture: the exact scan and the IVF scan at the batch size a loaded client
// sends (one op = 32 queries), and IVF at batch 1 (one op = one query, the
// same scan code with a single query row). rows/query is what a query had
// scored for it; IVF's speed over exact at batch 32 should track the ratio of
// the two, because both paths score a gathered block with one GEMM against
// every query that wants it.
func BenchmarkTopKBatch32(b *testing.B) {
	f := servetest.Shared(b, servetest.FixtureConfig{Nodes: 8000, Dim: 32, Epochs: 1})
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
	}{
		{"exact", 32, true},
		{"ivf", 32, false},
		{"ivf_b1", 1, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Enough distinct batches that consecutive ops probe different lists.
			stream := f.Requests(17, 64*bc.batch, 10, bc.exact)
			scanned := 0
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
			b.ReportMetric(float64(scanned)/float64(b.N*bc.batch), "rows/query")
		})
	}
}
