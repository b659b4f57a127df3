package serve

import (
	"testing"

	"pbg/internal/graph"
	"pbg/internal/storage"
)

// fuzzServer builds one tiny zero-embedding server for request fuzzing.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	dir := f.TempDir()
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 20, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	const dim = 4
	for p := 0; p < 2; p++ {
		n := schema.Entities[0].PartitionCount(p)
		sh := &storage.Shard{TypeIndex: 0, Part: p, Count: n, Dim: dim,
			Embs: make([]float32, n*dim), Acc: make([]float32, n)}
		if err := storage.WriteShard(storage.ShardPath(dir, 0, p), sh); err != nil {
			f.Fatal(err)
		}
	}
	s, err := Open(dir, Config{Schema: schema, Dim: dim})
	if err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzTopKRequest drives the RPC decode+validate surface with arbitrary
// bytes: DecodeTopKArgs must error or return a batch that Validate either
// rejects or the engine can serve — panics and over-reads are the bugs
// being hunted (the gob decoder is bounded, Validate bounds-checks every
// field against the schema).
func FuzzTopKRequest(f *testing.F) {
	s := fuzzServer(f)

	seed := func(a TopKArgs) []byte {
		b, err := encodeTopKArgs(&a)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 0, SrcID: 3, K: 5}}}))
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 0, SrcID: 3, K: 5, Exact: true}, {Rel: 0, Vector: []float32{1, 2, 3, 4}, K: 1}}}))
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 7, SrcID: -4, K: -2, NProbe: -9}}}))
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 0, Vector: []float32{1, 2, 3, 4}, K: 1, NProbe: -1}}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41, 0x99})

	f.Fuzz(func(t *testing.T, data []byte) {
		args, err := DecodeTopKArgs(data)
		if err != nil {
			return
		}
		if err := args.Validate(s); err != nil {
			return
		}
		// A batch that survives validation must actually be servable.
		if _, err := s.TopK(args.Reqs); err != nil {
			t.Fatalf("validated batch failed to serve: %v", err)
		}
	})
}
