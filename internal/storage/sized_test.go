package storage

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/wire"
)

// writtenBytes returns the file write leaves at a fresh path.
func writtenBytes(tb testing.TB, write func(path string) error) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "f.pbg")
	if err := write(path); err != nil {
		tb.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// patchU64 returns a copy of b with the little-endian word at off set to v.
func patchU64(b []byte, off int, v uint64) []byte {
	out := bytes.Clone(b)
	binary.LittleEndian.PutUint64(out[off:], v)
	return out
}

// addMalformed seeds f with img and the ways a file of it goes wrong:
// truncated, padded, and with each listed count word made absurd.
func addMalformed(f *testing.F, img []byte, countAt ...int) {
	f.Add(img)
	f.Add(img[:len(img)-1])
	f.Add(img[:min(len(img), 5)])
	f.Add(append(bytes.Clone(img), 0))
	for _, off := range countAt {
		f.Add(patchU64(img, off, 1<<40))
		f.Add(patchU64(img, off, math.MaxUint64))
		f.Add(patchU64(img, off, binary.LittleEndian.Uint64(img[off:])+1))
	}
}

// reencoded is what encode writes, in memory.
func reencoded(t *testing.T, encode func(w *bufio.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := encode(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadRelations drives relations.pbg's decoder — what serve.Open and
// pbg eval read a checkpoint's relation parameters with — with arbitrary
// bytes: it must return an error or a value that re-encodes to exactly the
// input, never panic, and never allocate a count the input cannot back.
func FuzzReadRelations(f *testing.F) {
	for _, rs := range []*RelationState{
		{},
		{Params: [][]float32{{1, 2, 3}, {4}}, Acc: [][]float32{{0.1, 0.2, 0.3}, {0.4}}},
		{Params: [][]float32{{}, {float32(math.NaN())}}, Acc: [][]float32{{}, {float32(math.Inf(-1))}}},
	} {
		img := writtenBytes(f, func(path string) error { return WriteRelations(path, rs) })
		counts := []int{0}
		if len(rs.Params) > 0 {
			counts = append(counts, 8)
		}
		addMalformed(f, img, counts...)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rs RelationState
		if wire.Parse(data, rs.walk) != nil {
			return
		}
		if got := wire.Append(nil, rs.walk); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(got))
		}
	})
}

// FuzzReadEdges is FuzzReadRelations for the edge files of a run
// directory (train.edges, test.edges).
func FuzzReadEdges(f *testing.F) {
	el := &graph.EdgeList{}
	for i := int32(0); i < 5; i++ {
		el.Append(i, i%2, -i)
	}
	for _, el := range []*graph.EdgeList{{}, el} {
		addMalformed(f, writtenBytes(f, func(path string) error { return WriteEdges(path, el) }), 0)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		el, err := decodeEdges(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		if got := reencoded(t, func(w *bufio.Writer) error { return encodeEdges(w, el) }); !bytes.Equal(got, data) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(data), len(got))
		}
	})
}

// TestReadSizedFilesRejectMalformed holds the file readers — the path
// production runs — to the decoders' verdicts: a valid file loads, and a
// short, padded or count-inflated one is an error.
func TestReadSizedFilesRejectMalformed(t *testing.T) {
	rel := writtenBytes(t, func(path string) error {
		return WriteRelations(path, &RelationState{Params: [][]float32{{1, 2}}, Acc: [][]float32{{3, 4}}})
	})
	el := &graph.EdgeList{}
	el.Append(1, 0, 2)
	edges := writtenBytes(t, func(path string) error { return WriteEdges(path, el) })
	dir := t.TempDir()
	for _, c := range []struct {
		name string
		img  []byte
		read func(path string) error
	}{
		{"relations", rel, func(p string) error { _, err := ReadRelations(p); return err }},
		{"edges", edges, func(p string) error { _, err := ReadEdges(p); return err }},
	} {
		path := filepath.Join(dir, c.name)
		for what, img := range map[string][]byte{
			"valid":    c.img,
			"short":    c.img[:len(c.img)-1],
			"empty":    nil,
			"trailing": append(bytes.Clone(c.img), 0),
			"inflated": patchU64(c.img, 0, 1<<40),
		} {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := c.read(path); (err == nil) != (what == "valid") {
				t.Errorf("%s file %s: err = %v", what, c.name, err)
			}
		}
	}
}

// TestRelationsBytesMatchParent pins relations.pbg's bytes: the SHA-256 of
// one fixed file, NaN, ±Inf, -0 and an empty block included, recorded
// before its codec became a wire walk. Checkpoints written by any commit
// must keep loading, so a change to these bytes has to be deliberate.
func TestRelationsBytesMatchParent(t *testing.T) {
	rs := &RelationState{
		Params: [][]float32{{1, -2.5, float32(math.NaN())}, {}, {float32(math.Inf(1))}},
		Acc:    [][]float32{{0.5, 0, float32(math.Copysign(0, -1))}, {}, {3}},
	}
	img := writtenBytes(t, func(path string) error { return WriteRelations(path, rs) })
	const want = "d8304f64862540a568128317002c184a086d211b0c34d9531864d45f1f5cc6b9"
	if got := fmt.Sprintf("%x", sha256.Sum256(img)); got != want {
		t.Errorf("relations.pbg of %d bytes has SHA-256 %s, want %s", len(img), got, want)
	}
}
