package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// workersOneDigests are the SHA-256 digests of every shard (embeddings and
// Adagrad state) and every relation's parameters after two Workers: 1
// epochs of the two cases below, per architecture and kernel path: the
// portable kernels round differently from the FMA leaves, and 386's math
// library differs from amd64's assembly in the last bit. They were recorded
// before the bucket's chunks moved onto one shared queue with a one-chunk
// lookahead, so a change to the order chunks are scored in, to the negative
// draws, or to when a chunk reads its rows fails here.
var workersOneDigests = map[string]map[string]string{
	"amd64/avx2+fma": {
		"kg_complex_diagonal_p1": "f2951f21a057b3247c9eba40c34fab349ec2f0fdc8b4699764bb277e0673c67b",
		"social_p4":              "55559204b36ad7ae13a86f5f3e0e1a4e7372038422db826072a7f993ec0be332",
	},
	"386/generic": {
		"kg_complex_diagonal_p1": "eb957168f0031d97f3d048e0937bbd1b7a33e90f75788375d6c104c09eccdccf",
		"social_p4":              "523ee756271489dbd15ab7c1c6f4c6fb2c6afdb8236a69feebaca15c65486bb0",
	},
}

func TestWorkersOneSameBytesAsRecorded(t *testing.T) {
	path := runtime.GOARCH + "/" + vec.Kernel()
	want, ok := workersOneDigests[path]
	if !ok {
		t.Skipf("no digests recorded for the %s kernels", path)
	}
	kg, err := datagen.Knowledge(datagen.KGConfig{Entities: 300, Relations: 6, Edges: 3000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range kg.Schema.Relations {
		kg.Schema.Relations[i].Operator = "complex_diagonal"
	}
	cases := []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"kg_complex_diagonal_p1", kg, Config{Dim: 16, Epochs: 2, Seed: 3, Workers: 1}},
		{"social_p4", smallSocial(t, 4), Config{Dim: 20, Epochs: 2, Seed: 3, Workers: 1, ChunkSize: 16, UniformNegs: 10}},
	}
	for _, c := range cases {
		store := storage.NewMemStore(c.g.Schema, c.cfg.Dim, 7, 1)
		tr, err := New(c.g, store, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Train(nil); err != nil {
			t.Fatal(err)
		}
		got := modelDigest(t, tr, store)
		t.Logf("%s on %s: %s", c.name, path, got)
		if got != want[c.name] {
			t.Errorf("%s: digest %s, recorded %s", c.name, got, want[c.name])
		}
	}
}

// modelDigest hashes every shard's embeddings and accumulators, entity type
// by entity type and partition by partition, then every relation's
// parameters, as little-endian float32 bits.
func modelDigest(t *testing.T, tr *Trainer, store storage.Store) string {
	t.Helper()
	h := sha256.New()
	var buf []byte
	put := func(xs []float32) {
		buf = buf[:0]
		for _, x := range xs {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
		h.Write(buf)
	}
	for ti, ent := range tr.Schema().Entities {
		for p := 0; p < max(1, ent.NumPartitions); p++ {
			sh, err := store.Acquire(ti, p)
			if err != nil {
				t.Fatal(err)
			}
			put(sh.Embs)
			put(sh.Acc)
			if err := store.Release(ti, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := range tr.Schema().Relations {
		put(tr.RelParams(r))
	}
	return hex.EncodeToString(h.Sum(nil))
}
