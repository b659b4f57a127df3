package serve_test

import (
	"os"
	"testing"

	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
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
