package serve_test

import (
	"fmt"
	"math"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/serve"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// nanRowsCheckpoint copies the fixture's checkpoint and plants NaNs in a few
// rows of the last partition. Their list's centroid is NaN, so the lists
// holding them are reached at a full probe only — and they sit in the last
// partition because that is where the reference's bounded heap, which has no
// defined order for a NaN score, never takes such a cell into the heap it
// sweeps with (cells past the first nprobe only ever enter by beating the
// root), which is what "NaN ranks last" selects as well. The test's probe
// widths stay below that partition's first cell or cover every list.
func nanRowsCheckpoint(t *testing.T, f *Fixture) string {
	t.Helper()
	dir := f.CheckpointAs(t, storage.CodecFP32)
	ent := &f.Graph.Schema.Entities[0]
	last := ent.NumPartitions - 1
	path := storage.ShardPath(dir, 0, last)
	sh, err := storage.ReadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	nan := float32(math.NaN())
	for _, row := range []int{2, 3, 40} {
		sh.Embs[row*sh.Dim+row%sh.Dim] = nan
	}
	for k := 0; k < sh.Dim; k++ {
		sh.Embs[7*sh.Dim+k] = nan
	}
	if err := storage.WriteShard(path, sh); err != nil {
		t.Fatal(err)
	}
	return dir
}

// referenceAnswers is ReferenceTopK, except on the portable kernel path for a
// batch with duplicates. There a score's last bits depend on where its query
// sits in the batch (kernel contract (ii) is the assembly path's: the generic
// MulABt rounds a full tile's cells and an edge's differently), so a batch
// that scores each distinct question once is bitwise the reference on the
// distinct questions, not on the batch with its repeats; the reference is
// given those and its answers are handed to every asker.
func referenceAnswers(t *testing.T, s *serve.Server, reqs []serve.TopKRequest) []serve.TopKResult {
	t.Helper()
	ask := reqs
	var rep []int
	if vec.Kernel() == "generic" {
		type question struct {
			rel          int
			src          int32
			k, nprobe    int
			exact        bool
			vectorBearer int // a Vector request is a question of its own
		}
		first := map[question]int{}
		ask = nil
		for i, r := range reqs {
			q := question{rel: r.Rel, src: r.SrcID, k: r.K, nprobe: r.NProbe, exact: r.Exact, vectorBearer: -1}
			if r.Vector != nil {
				q.vectorBearer = i
			}
			u, ok := first[q]
			if !ok {
				u = len(ask)
				first[q] = u
				ask = append(ask, r)
			}
			rep = append(rep, u)
		}
	}
	got, err := s.ReferenceTopK(ask)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		return got
	}
	out := make([]serve.TopKResult, len(reqs))
	for i, u := range rep {
		out[i] = got[u]
	}
	return out
}

// TestScanMatchesReference pins "same bytes out": over every comparator, every
// checkpoint layout the scan treats differently, and batches that exercise
// each piece of the scan — one query, 32 distinct ones, 32 drawn from a
// handful of sources (answered once each), mixed K and probe widths with
// repeats, mixed exact and index requests, raw Vector queries repeated (never
// merged), every score tied, NaN-bearing rows — the product scan returns the
// reference scan's IDs, score bits, Scanned, Probed and Reranked. The
// reference (export_test.go) is the scan before rows were scored in place,
// filtered ahead of the heaps, probes selected by quickselect and duplicates
// answered once; on the portable kernels see referenceAnswers.
func TestScanMatchesReference(t *testing.T) {
	type checkpoint struct {
		name string
		cfg  FixtureConfig
		dir  func(t *testing.T, f *Fixture) string
	}
	own := func(t *testing.T, f *Fixture) string { return f.CheckpointAs(t, storage.CodecFP32) }
	for _, cmp := range []string{"dot", "cos", "l2", "squared_l2"} {
		for _, ck := range []checkpoint{
			{"fp32", FixtureConfig{Comparator: cmp}, own},
			{"int8", FixtureConfig{Comparator: cmp}, func(t *testing.T, f *Fixture) string {
				return f.CheckpointAs(t, storage.CodecInt8)
			}},
			{"fp16", FixtureConfig{Comparator: cmp}, func(t *testing.T, f *Fixture) string {
				return f.CheckpointAs(t, storage.CodecFP16)
			}},
			{"all_tied", FixtureConfig{Comparator: cmp, Zero: true}, own},
			{"nan_rows", FixtureConfig{Comparator: cmp}, nanRowsCheckpoint},
		} {
			t.Run(cmp+"/"+ck.name, func(t *testing.T) {
				f := Shared(t, ck.cfg)
				s := openServerAt(t, f, ck.dir(t, f))
				if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
					t.Fatal(err)
				}
				for name, reqs := range referenceBatches(f) {
					got, err := s.TopK(reqs)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := referenceAnswers(t, s, reqs)
					for i := range reqs {
						if err := sameAnswer(got[i], want[i]); err != nil {
							t.Fatalf("%s request %d (%+v): %v", name, i, reqs[i], err)
						}
					}
				}
			})
		}
	}
}

// referenceBatches are the batches of TestScanMatchesReference, each on the
// index path and on the exact one.
func referenceBatches(f *Fixture) map[string][]serve.TopKRequest {
	const lists = 1 << 20 // a probe width past any list count: every list
	r := rng.New(77)
	nodes := f.Cfg.Nodes
	hot := []int32{int32(r.Intn(nodes)), int32(r.Intn(nodes)), int32(r.Intn(nodes)), 5, 5 + int32(nodes)/2}
	raw := make([]float32, f.Cfg.Dim)
	for i := range raw {
		raw[i] = r.NormFloat32()
	}
	out := map[string][]serve.TopKRequest{}
	for _, exact := range []bool{false, true} {
		path := map[bool]string{false: "ivf", true: "exact"}[exact]
		uniform := f.Requests(61, 32, 10, exact)
		out[path+"/one"] = uniform[:1]
		out[path+"/uniform32"] = uniform

		skewed := f.Requests(62, 32, 10, exact)
		for i := range skewed {
			skewed[i].SrcID = hot[r.Intn(len(hot))]
		}
		out[path+"/skewed32"] = skewed

		// Repeats that differ in K or probe width are different questions;
		// the widths stay clear of the NaN fixture's cells (nanRowsCheckpoint).
		mixed := f.Requests(63, 32, 10, exact)
		for i := range mixed {
			mixed[i].SrcID = hot[i%len(hot)]
			mixed[i].K = []int{10, 1, 4, 300}[i%4]
			mixed[i].NProbe = []int{0, 3, 25, lists, 9}[(i/2)%5]
		}
		out[path+"/mixed_k_nprobe"] = mixed

		vectors := f.Requests(64, 12, 10, exact)
		for i := range vectors {
			switch i % 3 {
			case 0:
				vectors[i].Vector = raw // the same vector, asked again and again
			case 1:
				vectors[i].SrcID = hot[0]
			}
		}
		out[path+"/vectors"] = vectors
	}
	both := f.Requests(65, 32, 10, false)
	for i := range both {
		both[i].SrcID = hot[i%3]
		both[i].Exact = i%2 == 0
		both[i].NProbe = []int{0, lists}[(i/2)%2]
	}
	out["exact_and_ivf"] = both
	return out
}

func sameAnswer(got, want serve.TopKResult) error {
	if got.Scanned != want.Scanned || got.Probed != want.Probed || got.Reranked != want.Reranked {
		return fmt.Errorf("scanned/probed/reranked %d/%d/%d, reference %d/%d/%d",
			got.Scanned, got.Probed, got.Reranked, want.Scanned, want.Probed, want.Reranked)
	}
	if len(got.IDs) != len(want.IDs) || len(got.Scores) != len(want.Scores) {
		return fmt.Errorf("%d ids and %d scores, reference %d and %d", len(got.IDs), len(got.Scores), len(want.IDs), len(want.Scores))
	}
	for j := range want.IDs {
		if got.IDs[j] != want.IDs[j] || math.Float32bits(got.Scores[j]) != math.Float32bits(want.Scores[j]) {
			return fmt.Errorf("rank %d: (%d, %x), reference (%d, %x)", j, got.IDs[j], math.Float32bits(got.Scores[j]), want.IDs[j], math.Float32bits(want.Scores[j]))
		}
	}
	return nil
}

// TestDuplicatesGetTheirOwnSlices: a query repeated in a batch is answered
// once, and every asker still owns its result — writing through one answer
// must not show in another.
func TestDuplicatesGetTheirOwnSlices(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	s := openServer(t, f)
	if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
		t.Fatal(err)
	}
	for _, exact := range []bool{false, true} {
		req := serve.TopKRequest{SrcID: 9, K: 5, Exact: exact}
		res, err := s.TopK([]serve.TopKRequest{req, req, req})
		if err != nil {
			t.Fatal(err)
		}
		want := append([]int32(nil), res[1].IDs...)
		for j := range res[0].IDs {
			res[0].IDs[j], res[0].Scores[j] = -1, -1
			res[2].IDs[j], res[2].Scores[j] = -2, -2
		}
		for j, id := range want {
			if res[1].IDs[j] != id || res[1].Scores[j] < 0 && res[1].Scores[j] == -1 {
				t.Fatalf("exact=%v: writing through one asker's result changed another's: %v", exact, res[1])
			}
		}
	}
}

// TestBlocksMaterialisedOnlyWhenNeeded pins the in-place rule from its inputs:
// a scan needs scratch exactly when something must be done to a block's bytes
// before they can be scored — a comparator that prepares rows — and otherwise
// scores shard rows and centroids where they lie, whatever codec the
// checkpoint was written in (a v2 shard is decoded to fp32 rows at open). On a
// platform that maps, "where they lie" is a v1 shard's PROT_READ mapping: a
// stray write by the in-place path would fault this test, not corrupt a
// checkpoint.
func TestBlocksMaterialisedOnlyWhenNeeded(t *testing.T) {
	for _, c := range []struct {
		cmp     string
		codec   storage.Codec
		scratch bool
	}{
		{"dot", storage.CodecFP32, false},
		{"l2", storage.CodecFP32, false},
		{"squared_l2", storage.CodecFP32, false},
		{"cos", storage.CodecFP32, true},
		{"dot", storage.CodecInt8, false},
		{"dot", storage.CodecFP16, false},
	} {
		f := Shared(t, FixtureConfig{Comparator: c.cmp})
		s := openServerAt(t, f, f.CheckpointAs(t, c.codec))
		if st, err := s.Stats(); err != nil || serve.MmapAvailable() && c.codec == storage.CodecFP32 && st.MappedShards == 0 {
			t.Fatalf("shards are not mapped: %+v, %v", st, err)
		}
		if err := s.BuildIndex(serve.IVFConfig{Seed: 7}); err != nil {
			t.Fatal(err)
		}
		for _, exact := range []bool{false, true} {
			floats, err := s.ScratchFloatsUsed(f.Requests(91, 32, 10, exact))
			if err != nil {
				t.Fatal(err)
			}
			if (floats > 0) != c.scratch {
				t.Errorf("%s over %v, exact=%v: scan used %d floats of scratch, want materialised=%v", c.cmp, c.codec, exact, floats, c.scratch)
			}
		}
	}
}
