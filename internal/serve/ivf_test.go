package serve_test

import (
	"os"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/rng"
	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
	"pbg/internal/storage"
)

// TestIVFRecallProperty is the satellite property test: over randomized
// dims and partition counts, IVF top-10 at the default nprobe must keep
// mean recall@10 ≥ 0.95 against the exact oracle — while scanning a
// strict subset of the rows (otherwise the index is a no-op).
func TestIVFRecallProperty(t *testing.T) {
	cases := []servetest.FixtureConfig{
		{Nodes: 400, Partitions: 2, Dim: 8, Seed: 21},
		{Nodes: 500, Partitions: 4, Dim: 16, Seed: 22},
		{Nodes: 600, Partitions: 3, Dim: 32, Seed: 23},
		{Nodes: 500, Partitions: 4, Dim: 16, Seed: 24, Comparator: "cos"},
	}
	for _, cfg := range cases {
		f := servetest.Shared(t, cfg)
		s := openServer(t, f)
		if err := s.BuildIndex(serve.IVFConfig{Seed: cfg.Seed}); err != nil {
			t.Fatal(err)
		}
		if !s.HasIndex() {
			t.Fatal("BuildIndex left the server without an index")
		}
		oracle := f.NewOracle(t)
		reqs := f.Requests(cfg.Seed, 50, 10, false)
		res, err := s.TopK(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var recall float64
		for i, req := range reqs {
			wantIDs, _ := oracle.TopK(req.Rel, req.SrcID, nil, req.K)
			recall += servetest.Recall(res[i].IDs, wantIDs)
			if res[i].Scanned >= f.Cfg.Nodes {
				t.Fatalf("case %+v req %d: IVF scanned %d of %d rows — no pruning", cfg, i, res[i].Scanned, f.Cfg.Nodes)
			}
			if res[i].Probed == 0 {
				t.Fatalf("case %+v req %d: IVF result reports zero probed lists", cfg, i)
			}
		}
		recall /= float64(len(reqs))
		if recall < 0.95 {
			t.Fatalf("case %+v: mean recall@10 = %.3f, want >= 0.95", cfg, recall)
		}
		t.Logf("nodes=%d parts=%d dim=%d cmp=%s: recall@10 = %.3f", cfg.Nodes, cfg.Partitions, cfg.Dim, cfg.Comparator, recall)
	}
}

// TestIVFRoundTrip pins that a written index reads back structurally
// identical and that the reloaded index answers queries identically.
func TestIVFRoundTrip(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	reqs := f.Requests(31, 20, 10, false)
	before, err := s.TopK(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// A reload re-reads the serialized index from disk.
	if err := s.Reload(""); err != nil {
		t.Fatal(err)
	}
	after, err := s.TopK(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if len(before[i].IDs) != len(after[i].IDs) {
			t.Fatalf("req %d: %d ids before reload, %d after", i, len(before[i].IDs), len(after[i].IDs))
		}
		for j := range before[i].IDs {
			if before[i].IDs[j] != after[i].IDs[j] || before[i].Scores[j] != after[i].Scores[j] {
				t.Fatalf("req %d rank %d: result changed across index round-trip", i, j)
			}
		}
	}

	idx, err := serve.ReadIVF(serve.IndexPath(f.Dir), f.Graph.Schema, f.Cfg.Dim)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Dim != f.Cfg.Dim {
		t.Fatalf("round-tripped dim %d, want %d", idx.Dim, f.Cfg.Dim)
	}
}

// TestReadIVFRejectsCorruption flips bytes across the serialized index and
// requires every corruption to be rejected or produce a still-valid index
// — never a panic or an out-of-range list.
func TestReadIVFRejectsCorruption(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(serve.IndexPath(f.Dir))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/ivf.pbg"

	// Truncations at every prefix length of the small header region and a
	// few strides through the body.
	for cut := 0; cut < len(data); cut += 1 + len(data)/97 {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := serve.ReadIVF(path, f.Graph.Schema, f.Cfg.Dim); err == nil {
			t.Fatalf("truncation at %d bytes read back without error", cut)
		}
	}
	// Bit flips in the structural header words.
	for off := 0; off < 32 && off < len(data); off += 4 {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		// Must not panic; errors are expected, silent success is only
		// acceptable if the flip landed in float payload (not in the first
		// 16 header bytes, which are all structural).
		idx, err := serve.ReadIVF(path, f.Graph.Schema, f.Cfg.Dim)
		if off < 16 && err == nil {
			t.Fatalf("header corruption at byte %d read back without error (idx=%v)", off, idx != nil)
		}
	}
	// Wrong dim must be rejected.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.ReadIVF(path, f.Graph.Schema, f.Cfg.Dim+3); err == nil {
		t.Fatal("index with mismatched dim read back without error")
	}
}

// mixedIVFBatch is n same-relation index requests whose probe widths and Ks
// differ from request to request (NProbe 0 is the server default).
func mixedIVFBatch(f *servetest.Fixture, seed uint64, n int) []serve.TopKRequest {
	reqs := f.Requests(seed, n, 10, false)
	for i := range reqs {
		reqs[i].Rel = 0
		reqs[i].NProbe = []int{0, 3, 9, 25}[i%4]
		reqs[i].K = []int{10, 1, 4}[i%3]
	}
	return reqs
}

// TestBatchedIVFMatchesSingle pins the list-major scan against the
// query-major one it replaced: a batch of 32 requests with mixed per-request
// NProbe and K returns, request by request, the ids, Scanned and Probed of
// issuing that request alone. And a request alone is one query row on
// vec.MulABt's Dot tail, so every id it returns carries the oracle's score
// bit for bit.
func TestBatchedIVFMatchesSingle(t *testing.T) {
	for _, cmp := range []string{"dot", "cos"} {
		t.Run(cmp, func(t *testing.T) {
			f := servetest.Shared(t, servetest.FixtureConfig{Comparator: cmp})
			s := openServer(t, f)
			if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
				t.Fatal(err)
			}
			oracle := f.NewOracle(t)
			reqs := mixedIVFBatch(f, 707, 32)
			batched, err := s.TopK(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range reqs {
				single, err := s.TopK([]serve.TopKRequest{req})
				if err != nil {
					t.Fatal(err)
				}
				got, want := batched[i], single[0]
				if got.Scanned != want.Scanned || got.Probed != want.Probed {
					t.Fatalf("request %d: batched scanned/probed %d/%d, single %d/%d", i, got.Scanned, got.Probed, want.Scanned, want.Probed)
				}
				if len(got.IDs) != len(want.IDs) {
					t.Fatalf("request %d: batched %d ids, single %d", i, len(got.IDs), len(want.IDs))
				}
				all := oracle.AllScores(req.Rel, req.SrcID, nil)
				for j, id := range want.IDs {
					if got.IDs[j] != id {
						t.Fatalf("request %d rank %d: batched id %d, single id %d", i, j, got.IDs[j], id)
					}
					if want.Scores[j] != all[id] {
						t.Fatalf("request %d id %d: single score bits %x, oracle %x", i, id, want.Scores[j], all[id])
					}
				}
			}
		})
	}
}

// TestIVFScanGathersEachListOnce is the mechanism behind the batched scan's
// speed, as a count: the rows copied into scratch for a batch are the rows of
// the union of the lists its queries selected — each list once — which is
// strictly fewer than the (query, row) pairs scored. A scan that gathered per
// query again would copy exactly Σ Scanned rows.
func TestIVFScanGathersEachListOnce(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	reqs := mixedIVFBatch(f, 808, 32)
	gathered, union, res, err := s.IVFGatherCounts(reqs)
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for i := range res {
		scanned += res[i].Scanned
	}
	if gathered != union {
		t.Fatalf("batch gathered %d rows, the union of its probed lists holds %d", gathered, union)
	}
	if gathered >= scanned {
		t.Fatalf("batch gathered %d rows for %d (query, row) pairs scored — no re-use across queries", gathered, scanned)
	}
	// One query has nothing to share: it gathers what it scans.
	gathered, union, res, err = s.IVFGatherCounts(reqs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if gathered != res[0].Scanned || union != gathered {
		t.Fatalf("single query gathered %d rows (union %d), scanned %d", gathered, union, res[0].Scanned)
	}
}

// TestDefaultNProbePerDestinationType pins that the default probe width is
// worked out from the destination type's own list count. On a schema with a
// large and a small destination type, a width resolved from the larger type
// exceeds the smaller type's list count, gets clamped to it, and turns every
// default query against the smaller type into a full scan.
func TestDefaultNProbePerDestinationType(t *testing.T) {
	schema := graph.MustSchema(
		[]graph.EntityType{
			{Name: "user", Count: 2000, NumPartitions: 4},
			{Name: "item", Count: 150, NumPartitions: 1},
		},
		[]graph.RelationType{
			{Name: "follows", SourceType: "user", DestType: "user", Operator: "identity"},
			{Name: "likes", SourceType: "user", DestType: "item", Operator: "identity"},
		},
	)
	const dim = 8
	dir := t.TempDir()
	r := rng.New(5)
	for ti := range schema.Entities {
		ent := &schema.Entities[ti]
		for p := 0; p < ent.NumPartitions; p++ {
			n := ent.PartitionCount(p)
			sh := &storage.Shard{TypeIndex: ti, Part: p, Count: n, Dim: dim,
				Embs: make([]float32, n*dim), Acc: make([]float32, n)}
			for i := range sh.Embs {
				sh.Embs[i] = r.NormFloat32()
			}
			if err := storage.WriteShard(storage.ShardPath(dir, ti, p), sh); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := serve.Open(dir, serve.Config{Schema: schema, Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.BuildIndex(serve.IVFConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	res, err := s.TopK([]serve.TopKRequest{{Rel: 0, SrcID: 3, K: 5}, {Rel: 1, SrcID: 3, K: 5}})
	if err != nil {
		t.Fatal(err)
	}
	for rel, ent := range schema.Entities {
		if res[rel].Probed == 0 || res[rel].Scanned >= ent.Count {
			t.Fatalf("default query against %q probed %d lists and scanned %d of %d rows — no pruning", ent.Name, res[rel].Probed, res[rel].Scanned, ent.Count)
		}
	}
}
