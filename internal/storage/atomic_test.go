package storage

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pbg/internal/rng"
)

// tempFiles lists the writer's temp files left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestWriteFileAtomicSizeHintKeepsLength pins that the preallocation never
// shows in the file: a hint larger than what emit writes leaves a file of
// exactly the emitted length. A preallocation that extended the file (a
// mode-0 fallocate) would pad it with zeros, which ParseLayout rejects as
// trailing bytes — so a shard written under too large a hint must load.
func TestWriteFileAtomicSizeHintKeepsLength(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	b := []byte("seventeen bytes!!")
	for _, hint := range []int64{-1, 0, 1, int64(len(b)), 1 << 20} {
		err := writeFileAtomic(path, hint, func(f *os.File) error {
			_, err := f.Write(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("hint %d: file is %d bytes, want exactly the %d emitted", hint, len(got), len(b))
		}
	}

	sh := seededShard()
	l := LayoutOf(sh, CodecFP32)
	shardPath := filepath.Join(dir, "s.pbg")
	if err := writeFileAtomic(shardPath, l.Size()+1<<16, func(f *os.File) error { return l.EncodeTo(f, sh) }); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(shardPath); err != nil || fi.Size() != l.Size() {
		t.Fatalf("shard under an oversized hint: stat %v, %v; want %d bytes", fi, err, l.Size())
	}
	if _, _, err := ReadShardCodec(shardPath); err != nil {
		t.Fatalf("shard under an oversized hint does not load: %v", err)
	}
	if got := tempFiles(t, dir); len(got) != 0 {
		t.Fatalf("temp files left behind: %v", got)
	}
}

// TestWriteFileAtomicFailedEmitKeepsOld pins the other half of the crash
// model: an emit that fails part-way leaves the old file byte-identical and
// removes its preallocated temp file.
func TestWriteFileAtomicFailedEmitKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard_t0_p0.pbg")
	if err := WriteShard(path, seededShard()); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("emit failed")
	err = writeFileAtomic(path, 1<<20, func(f *os.File) error {
		if _, err := f.Write(bytes.Repeat([]byte{0xAB}, 4096)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got error %v, want the emit's", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatal("a failed write changed the old file")
	}
	if tmps := tempFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
}

// TestShardFileIsLayoutSize pins, per codec, that the preallocated shard
// file is exactly its Layout.Size and decodes back: fp32 bit for bit, the
// quantized codecs within their rounding bound, the Adagrad block always
// exact.
func TestShardFileIsLayoutSize(t *testing.T) {
	dir := t.TempDir()
	sh := NewShard(1, 2, 300, 24)
	sh.Init(rng.New(7), 1)
	for i := range sh.Acc {
		sh.Acc[i] = float32(i) * 0.125
	}
	for _, c := range Codecs() {
		path := filepath.Join(dir, c.String()+".pbg")
		if err := WriteShardCodec(path, sh, c); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := LayoutOf(sh, c).Size(); fi.Size() != want {
			t.Errorf("%v: file is %d bytes, Layout.Size is %d", c, fi.Size(), want)
		}
		got, gotCodec, err := ReadShardCodec(path)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if gotCodec != c || got.TypeIndex != 1 || got.Part != 2 || got.Count != 300 || got.Dim != 24 {
			t.Fatalf("%v: read back codec %v, shard (%d,%d) %d×%d", c, gotCodec, got.TypeIndex, got.Part, got.Count, got.Dim)
		}
		for i, a := range sh.Acc {
			if got.Acc[i] != a {
				t.Fatalf("%v: acc[%d] %v, want %v", c, i, got.Acc[i], a)
			}
		}
		for row := 0; row < sh.Count; row++ {
			var bound float64 // fp32: exact
			switch c {
			case CodecFP16:
				bound = 1e-3 * maxAbs(sh.Row(row))
			case CodecInt8:
				bound = maxAbs(sh.Row(row)) / 127
			}
			for i, x := range sh.Row(row) {
				if d := math.Abs(float64(x) - float64(got.Row(row)[i])); d > bound {
					t.Fatalf("%v: row %d elem %d off by %g > %g", c, row, i, d, bound)
				}
			}
		}
	}
}

func maxAbs(row []float32) float64 {
	var m float64
	for _, x := range row {
		m = math.Max(m, math.Abs(float64(x)))
	}
	return m
}

// TestNewDiskStoreRemovesOrphanTemps pins the open-time sweep: a temp file a
// killed writer left behind is deleted, and nothing else in the directory —
// shards, the run config, the IVF index — is touched.
func TestNewDiskStoreRemovesOrphanTemps(t *testing.T) {
	dir := t.TempDir()
	schema := testSchema(t)
	if err := WriteShard(ShardPath(dir, 0, 0), NewShard(0, 0, schema.Entities[0].PartitionCount(0), 4)); err != nil {
		t.Fatal(err)
	}
	keep := map[string][]byte{}
	for name, b := range map[string][]byte{
		"config.json": []byte(`{"dimension":4}` + "\n"),
		"ivf.pbg":     []byte("an index"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"shard_t0_p0.pbg", "config.json", "ivf.pbg"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		keep[name] = b
	}
	orphan := ShardPath(dir, 0, 1) + ".tmp42"
	if err := os.WriteFile(orphan, make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}

	newTestDisk(t, dir, schema, 4, 1, 1)
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan temp file survived NewDiskStore: stat error %v", err)
	}
	for name, want := range keep {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s changed when the store opened", name)
		}
	}
}
