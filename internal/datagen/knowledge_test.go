package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"pbg/internal/graph"
)

// knowledgeGolden pins KnowledgeWithTruth's output bytes. The hashes were
// recorded from the generator as it was before candidates were scored in
// parallel blocks; the draw, score and dedup stages must reproduce them.
var knowledgeGolden = []struct {
	name         string
	cfg          KGConfig
	edges, truth string
}{
	// The repo benchmark's kg_mem shape.
	{"kg_mem/seed1", KGConfig{Entities: 6000, Relations: 40, Edges: 150000, CandidatePool: 128, Seed: 1},
		"c2b936f657be1cca089737dbb27bb71d5a67c4b5beb42865818e66cb0d792dd4",
		"36d7e0e2d3396bddff96c2fae211a96f22f15109af4d84ada1d5c93c0c4aa8e8"},
	{"kg_mem/seed2", KGConfig{Entities: 6000, Relations: 40, Edges: 150000, CandidatePool: 128, Seed: 2},
		"632ab52a1b2cfd387581aad32cba20c175c36d625433dea6a44938c323e202c7",
		"d00fb61657d3fb8a4ea08c7a756fcc231a75fa55b68b218a046f679438beaaab"},
	{"kg_mem/seed3", KGConfig{Entities: 6000, Relations: 40, Edges: 150000, CandidatePool: 128, Seed: 3},
		"e94ea68e758974f300cd19680dd56363b3acd90cc82d3eefb9320b23ddba161e",
		"5f9bc56214f3d2beab3d4ca2448c8cc7ab2c30685660e9ab6c072ee4a8630be6"},
	// internal/bench's FB15k / Freebase stand-in.
	{"freebase", KGConfig{Entities: 1000, Relations: 20, Edges: 40000, Seed: 7},
		"9a8d89fe3278b674a7264988e09af05c3d3516c5b1f4beaa58c587ed761fde67",
		"68abc56635e9c0e31ca43790110ff8036bb03ffb00f17759e8f693f672fef0eb"},
	// internal/train's two knowledge-graph test shapes.
	{"train/300", KGConfig{Entities: 300, Relations: 6, Edges: 3000, Seed: 13},
		"9a7c7af2ebf780f91b13e3898dca5235d109d7927add2555979f91c35814461e",
		"07c2983f66d071ef5ef5ea6cc6e96dfe66aabef4125bf138bad4a617c1ee05e6"},
	{"train/200", KGConfig{Entities: 200, Relations: 4, Edges: 1500, Seed: 17},
		"cf2d4868623f02280e8f29df449af875c660704f1510247811af5d9d07aa308f",
		"fb465bc27a0e27033384d63e4c3293991fc5411223381afbeeb56ed9bb4a2d2f"},
	// A default pool wider than one draw block holds many of.
	{"wide-pool", KGConfig{Entities: 3000, Relations: 5, Edges: 4000, Seed: 4},
		"353fd96eada4604fa9b14cb393646679d16ee1a7fe73cf4113ace9cb5f63becc",
		"2c166038575df1b31994a5d06218e3f22b756e76335cb49c8a043aa708188c16"},
	// The pool is capped at the 10 entities, so most attempts repeat an
	// edge and the 20×Edges attempt cap ends the loop.
	{"tiny", KGConfig{Entities: 10, Relations: 3, Edges: 500, Seed: 1},
		"f6f384ca713854daa8d395c0ab39f44584dbe3d402b5c783a56e34e44e45975e",
		"b056dc69c7ec963063ab3705cffb142d753e8ed5b0b07b5d9a8725e63b8df022"},
}

// knowledgeHashes returns the SHA-256 of the little-endian (s, rel, d)
// stream and of the truth's Latent, RelW, RelT and LogPop float bits.
func knowledgeHashes(t *testing.T, cfg KGConfig) (edges, truth string) {
	t.Helper()
	g, tr, err := KnowledgeWithTruth(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [4]byte
	for _, xs := range [][]float32{tr.Latent.Data, tr.RelW.Data, tr.RelT.Data, tr.LogPop} {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	return edgeHash(g.Edges), hex.EncodeToString(h.Sum(nil))
}

// edgeHash returns the SHA-256 of the little-endian (s, rel, d) stream.
func edgeHash(el *graph.EdgeList) string {
	h := sha256.New()
	var b [12]byte
	for i := 0; i < el.Len(); i++ {
		s, r, d := el.Edge(i)
		binary.LittleEndian.PutUint32(b[0:], uint32(s))
		binary.LittleEndian.PutUint32(b[4:], uint32(r))
		binary.LittleEndian.PutUint32(b[8:], uint32(d))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestKnowledgeBytesMatchParent(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		// Elsewhere Go may fuse a multiply and an add into one rounding,
		// which moves the scores, and with them these bytes.
		t.Skip("hashes recorded on amd64, where Go does not fuse multiply-add")
	}
	for _, c := range knowledgeGolden {
		if (testing.Short() || raceDetectorEnabled) && c.cfg.Edges > 50000 {
			continue
		}
		edges, truth := knowledgeHashes(t, c.cfg)
		t.Logf("%s edges %s truth %s", c.name, edges, truth)
		if edges != c.edges {
			t.Errorf("%s: edge hash %s, want %s", c.name, edges, c.edges)
		}
		if truth != c.truth {
			t.Errorf("%s: truth hash %s, want %s", c.name, truth, c.truth)
		}
	}
}

func TestKnowledgeSameGraphAnyProcs(t *testing.T) {
	cfgs := []KGConfig{
		{Entities: 2000, Relations: 10, Edges: 5000, CandidatePool: 128, Seed: 9},
		{Entities: 1200, Relations: 5, Edges: 1500, Seed: 4},
		{Entities: 10, Relations: 3, Edges: 500, Seed: 1},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range cfgs {
		runtime.GOMAXPROCS(1)
		e1, t1 := knowledgeHashes(t, cfg)
		runtime.GOMAXPROCS(4)
		e4, t4 := knowledgeHashes(t, cfg)
		if e1 != e4 || t1 != t4 {
			t.Errorf("%+v: GOMAXPROCS 1 gives %s/%s, 4 gives %s/%s", cfg, e1, t1, e4, t4)
		}
	}
}

// BenchmarkKnowledge generates the repo benchmark's kg_mem graph: 6 000
// entities, 40 relations, 150 000 edges, a pool of 128.
func BenchmarkKnowledge(b *testing.B) {
	cfg := KGConfig{Entities: 6000, Relations: 40, Edges: 150000, CandidatePool: 128, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := KnowledgeWithTruth(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/op")
}

// TestKnowledgeOracleRanksTruth is the oracle KGTruth exists for: scoring
// with the hidden model ranks each edge's true destination among all
// entities close to the top. The default pool is Entities/3, so the
// destination beat a third of the entities and should rank around
// Entities/CandidatePool = 3; it measures 3.94 here (3.9–4.3 over seeds
// 21–24), against 500 for a graph with no structure.
func TestKnowledgeOracleRanksTruth(t *testing.T) {
	g, truth, err := KnowledgeWithTruth(KGConfig{Entities: 1000, Relations: 10, Edges: 5000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const samples = 400
	n := g.Edges.Len()
	var sum float64
	for i := 0; i < samples; i++ {
		s, rel, d := g.Edges.Edge(i * n / samples)
		want := truth.Score(s, rel, d)
		rank := 1
		for e := int32(0); e < 1000; e++ {
			if e != s && e != d && truth.Score(s, rel, e) > want {
				rank++
			}
		}
		sum += float64(rank)
	}
	mean := sum / samples
	t.Logf("oracle mean rank %.2f of 1000 entities over %d edges", mean, samples)
	if mean > 6 {
		t.Fatalf("oracle mean rank %.2f of 1000 entities, want ≤ 6", mean)
	}
}
