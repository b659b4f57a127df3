package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/rng"
	"pbg/internal/storage"
)

// fuzzServer builds one tiny zero-embedding server for request fuzzing.
func fuzzServer(f *testing.F) *Server {
	f.Helper()
	return tinyServer(f, 20, 0)
}

// tinyServer serves nodes entities in two partitions at dim 4: all-zero
// embeddings, or seeded random ones when seed is non-zero.
func tinyServer(tb testing.TB, nodes int, seed uint64) *Server {
	tb.Helper()
	dir := tb.TempDir()
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: nodes, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	const dim = 4
	r := rng.New(seed)
	for p := 0; p < 2; p++ {
		n := schema.Entities[0].PartitionCount(p)
		sh := &storage.Shard{TypeIndex: 0, Part: p, Count: n, Dim: dim,
			Embs: make([]float32, n*dim), Acc: make([]float32, n)}
		for i := range sh.Embs {
			if seed != 0 {
				sh.Embs[i] = r.NormFloat32()
			}
		}
		if err := storage.WriteShard(storage.ShardPath(dir, 0, p), sh); err != nil {
			tb.Fatal(err)
		}
	}
	s, err := Open(dir, Config{Schema: schema, Dim: dim})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = s.Close() })
	return s
}

// fullProbe answers one query for every entity through idx at a probe width
// past any list count, on the server's shards, and fails the test unless the
// answer is every entity exactly once: what a scan over lists that partition
// the rows returns, and what the tile's unchecked reads rely on.
func fullProbe(t *testing.T, s *Server, idx *IVF) {
	t.Helper()
	cur, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer cur.release()
	v := &view{ss: cur.ss, ivf: idx, scorers: cur.scorers, relFwd: cur.relFwd, rawRows: cur.rawRows,
		srcType: cur.srcType, dstType: cur.dstType, rerank: cur.rerank}
	nodes := s.cfg.Schema.Entities[0].Count
	reqs := []TopKRequest{{SrcID: 1, K: nodes, NProbe: 1 << 20}, {SrcID: 2, K: nodes, NProbe: 1 << 20}}
	out := make([]TopKResult, len(reqs))
	v.topKIVF(&workspace{}, 0, reqs, out)
	for i := range out {
		seen := make([]bool, nodes)
		for _, id := range out[i].IDs {
			if id < 0 || int(id) >= nodes || seen[id] {
				t.Fatalf("query %d: id %d out of range or returned twice in %v", i, id, out[i].IDs)
			}
			seen[id] = true
		}
		if len(out[i].IDs) != nodes || out[i].Scanned != nodes {
			t.Fatalf("query %d: a full probe returned %d of %d entities over %d rows scanned", i, len(out[i].IDs), nodes, out[i].Scanned)
		}
	}
}

// TestReadIVFRejectsNonPartition: an index whose lists are not a partition of
// a shard's rows used to load — range-checked ids, but a row in two lists or
// in none — and then answered with one id twice and others unreachable at any
// nprobe. BuildIVF's output satisfies the predicate, each way of breaking it
// is refused, by ReadIVF and so by a reload.
func TestReadIVFRejectsNonPartition(t *testing.T) {
	s := tinyServer(t, 40, 5)
	v, err := s.acquire()
	if err != nil {
		t.Fatal(err)
	}
	build := func() *IVF { return BuildIVF(v.ss, IVFConfig{Seed: 3}) }
	defer v.release()
	schema := s.cfg.Schema
	path := IndexPath(s.Dir())
	load := func(idx *IVF) (*IVF, error) {
		if err := WriteIVF(path, idx); err != nil {
			t.Fatal(err)
		}
		return ReadIVF(path, schema, s.cfg.Dim)
	}

	good, err := load(build())
	if err != nil {
		t.Fatalf("BuildIVF's own output refused: %v", err)
	}
	fullProbe(t, s, good)

	for name, corrupt := range map[string]func(lists [][]int32) [][]int32{
		"a row in two lists": func(l [][]int32) [][]int32 { l[1] = append(l[1], l[0][0]); return l },
		"a row in no list":   func(l [][]int32) [][]int32 { l[2] = nil; return l },
		"a row twice in one": func(l [][]int32) [][]int32 { l[0] = append(l[0], l[0][0]); return l },
		"both at once":       func(l [][]int32) [][]int32 { l[1] = append(l[1], l[0][0]); l[2] = nil; return l },
	} {
		idx := build()
		part := &idx.Types[0].Parts[0]
		if len(part.Lists) < 3 || len(part.Lists[0]) == 0 || len(part.Lists[2]) == 0 {
			t.Fatalf("fixture index has lists %v; the cases need three non-empty ones", part.Lists)
		}
		part.Lists = corrupt(part.Lists)
		if _, err := load(idx); err == nil || !strings.Contains(err.Error(), "ivf part 0/0") {
			t.Errorf("%s: ReadIVF returned %v, want the partition gate's error", name, err)
		}
		if err := s.Reload(""); err == nil {
			t.Errorf("%s: a reload served the index", name)
		}
	}
}

// FuzzReadIVF drives the ivf.pbg trust boundary with arbitrary bytes, seeded
// from a real written index and from the non-partitions the gate exists for:
// ReadIVF must error, or return an index over which a full-nprobe batch
// through the list scan neither panics nor reads out of range, and returns
// every entity exactly once.
func FuzzReadIVF(f *testing.F) {
	s := tinyServer(f, 40, 5)
	v, err := s.acquire()
	if err != nil {
		f.Fatal(err)
	}
	defer v.release()
	dir := f.TempDir()
	path := filepath.Join(dir, "ivf.pbg")
	image := func(mutate func(*IVF)) []byte {
		idx := BuildIVF(v.ss, IVFConfig{Seed: 3})
		mutate(idx)
		if err := WriteIVF(path, idx); err != nil {
			f.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	good := image(func(*IVF) {})
	f.Add(good)
	f.Add(image(func(idx *IVF) { l := idx.Types[0].Parts[0].Lists; l[1] = append(l[1], l[0][0]) }))
	f.Add(image(func(idx *IVF) { idx.Types[0].Parts[1].Lists[0] = nil }))
	f.Add(good[:len(good)/2])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		idx, err := ReadIVF(path, s.cfg.Schema, s.cfg.Dim)
		if err != nil {
			return
		}
		if idx.Types[0] == nil {
			return // a well-formed index of no type: nothing to scan
		}
		fullProbe(t, s, idx)
	})
}

// FuzzTopKRequest drives what a connection runs for a TopK frame's payload
// — TopKArgs.ParseWire, then the handler with its Validate — with arbitrary
// bytes: the parser must error or return a batch that re-encodes to exactly
// the bytes it was given (one encoding per value, nothing ignored) and that
// the handler either rejects or serves. Panics, over-reads and allocations
// the payload does not back are the bugs being hunted.
func FuzzTopKRequest(f *testing.F) {
	s := fuzzServer(f)
	sv := &Service{s: s}

	seed := func(a TopKArgs) []byte { return a.AppendWire(nil) }
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 0, SrcID: 3, K: 5}}}))
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 0, SrcID: 3, K: 5, Exact: true}, {Rel: 0, Vector: []float32{1, 2, 3, 4}, K: 1}}}))
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 7, SrcID: -4, K: -2, NProbe: -9}}}))
	f.Add(seed(TopKArgs{Reqs: []TopKRequest{{Rel: 0, Vector: []float32{1, 2, 3, 4}, K: 1, NProbe: -1}}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x41, 0x99})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4 Gi requests, none present

	f.Fuzz(func(t *testing.T, data []byte) {
		var args TopKArgs
		if err := args.ParseWire(data); err != nil {
			return
		}
		if again := args.AppendWire(nil); !bytes.Equal(again, data) {
			t.Fatalf("parsed batch re-encodes to %d bytes %x, payload was %d bytes %x", len(again), again, len(data), data)
		}
		if args.Validate(s) != nil {
			return
		}
		// A batch that survives validation must actually be servable.
		var reply TopKReply
		if err := sv.TopK(args, &reply); err != nil {
			t.Fatalf("validated batch failed to serve: %v", err)
		}
	})
}
