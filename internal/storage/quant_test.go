package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// goldenShard is the fixed tiny shard whose on-disk bytes are pinned per
// codec below: values chosen so every quantized byte is hand-computable.
func goldenShard() *Shard {
	return &Shard{
		TypeIndex: 1, Part: 2, Count: 2, Dim: 2,
		Embs: []float32{1, -1, 0.5, 0.25},
		Acc:  []float32{3, 4},
	}
}

func putU32s(buf *bytes.Buffer, vs ...uint32) {
	for _, v := range vs {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		buf.Write(b[:])
	}
}

func putF32s(buf *bytes.Buffer, vs ...float32) {
	for _, v := range vs {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		buf.Write(b[:])
	}
}

// TestShardGoldenBytes pins the exact on-disk image of the golden shard
// under every codec. Any drift in header layout, field order, endianness,
// scale placement, or rounding behaviour fails here before it can corrupt
// a real checkpoint.
func TestShardGoldenBytes(t *testing.T) {
	dir := t.TempDir()

	want := map[Codec]*bytes.Buffer{}

	// v1 fp32: 6-word header, fp32 embeddings, fp32 acc.
	b := &bytes.Buffer{}
	putU32s(b, 0x50424753, 1, 1, 2, 2, 2)
	putF32s(b, 1, -1, 0.5, 0.25)
	putF32s(b, 3, 4)
	want[CodecFP32] = b

	// v2 fp16: 7-word header (codec=1), binary16 embeddings, fp32 acc.
	// 1.0 = 0x3c00, -1.0 = 0xbc00, 0.5 = 0x3800, 0.25 = 0x3400.
	b = &bytes.Buffer{}
	putU32s(b, 0x50424753, 2, 1, 1, 2, 2, 2)
	for _, h := range []uint16{0x3c00, 0xbc00, 0x3800, 0x3400} {
		var hb [2]byte
		binary.LittleEndian.PutUint16(hb[:], h)
		b.Write(hb[:])
	}
	putF32s(b, 3, 4)
	want[CodecFP16] = b

	// v2 int8: 7-word header (codec=2), per-row fp32 scales, int8 rows,
	// fp32 acc. Row 0 scale 1/127: [1,-1] -> [127,-127] = 0x7f,0x81.
	// Row 1 scale 0.5/127: [0.5,0.25] -> [127, round(63.5)=64] = 0x7f,0x40.
	b = &bytes.Buffer{}
	putU32s(b, 0x50424753, 2, 2, 1, 2, 2, 2)
	putF32s(b, float32(1)/127, float32(0.5)/127)
	b.Write([]byte{0x7f, 0x81, 0x7f, 0x40})
	putF32s(b, 3, 4)
	want[CodecInt8] = b

	for c, exp := range want {
		path := filepath.Join(dir, "golden_"+c.String()+".pbg")
		if err := WriteShardCodec(path, goldenShard(), c); err != nil {
			t.Fatalf("%v: write: %v", c, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp.Bytes()) {
			t.Fatalf("%v: on-disk bytes drifted\n got %x\nwant %x", c, got, exp.Bytes())
		}
		if size := LayoutOf(goldenShard(), c).Size(); int64(len(got)) != size {
			t.Fatalf("%v: Layout.Size = %d, file is %d", c, size, len(got))
		}
	}
}

// TestShardCodecRoundTrip checks the per-codec decode guarantees on
// randomized shards: fp32 is bit-exact, fp16 matches the scalar kernels
// exactly, int8 error is bounded by scale/2 per element, and the Adagrad
// block plus all header fields survive every codec untouched.
func TestShardCodecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r := rng.New(17)
	for trial := 0; trial < 8; trial++ {
		count := 1 + r.Intn(50)
		dim := 1 + r.Intn(24)
		sh := NewShard(3, trial, count, dim)
		sh.Init(rng.New(uint64(trial)), 2.0)
		if trial%3 == 0 && count > 1 {
			for i := range sh.Row(1) { // an all-zero row per codec
				sh.Row(1)[i] = 0
			}
		}
		for i := range sh.Acc {
			sh.Acc[i] = float32(i) * 0.75
		}
		for _, c := range Codecs() {
			path := filepath.Join(dir, "rt.pbg")
			if err := WriteShardCodec(path, sh, c); err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			got, gc, err := ReadShardCodec(path)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			if gc != c {
				t.Fatalf("decoded codec %v, wrote %v", gc, c)
			}
			if got.TypeIndex != 3 || got.Part != trial || got.Count != count || got.Dim != dim {
				t.Fatalf("%v: header drifted: %+v", c, got)
			}
			for i, a := range sh.Acc {
				if got.Acc[i] != a {
					t.Fatalf("%v: acc[%d] %v != %v (Adagrad must stay fp32-exact)", c, i, got.Acc[i], a)
				}
			}
			switch c {
			case CodecFP32:
				for i := range sh.Embs {
					if got.Embs[i] != sh.Embs[i] {
						t.Fatalf("fp32 emb[%d] %v != %v", i, got.Embs[i], sh.Embs[i])
					}
				}
			case CodecFP16:
				for i := range sh.Embs {
					if want := vec.F16Value(vec.F16Bits(sh.Embs[i])); got.Embs[i] != want {
						t.Fatalf("fp16 emb[%d] %v, want %v", i, got.Embs[i], want)
					}
				}
			case CodecInt8:
				for row := 0; row < count; row++ {
					scale := vec.I8RowScale(sh.Row(row))
					bound := float64(scale)/2*(1+1e-6) + 1e-30
					for i, x := range sh.Row(row) {
						if err := math.Abs(float64(x) - float64(got.Row(row)[i])); err > bound {
							t.Fatalf("int8 row %d elem %d: error %g > scale/2 = %g", row, i, err, bound)
						}
					}
				}
			}
		}
	}
}

// TestReadShardRejectsHostileHeaders drives the decode surface with the
// malformed inputs FuzzShardLayout explores: every case must error
// without panicking, and a giant claimed geometry must be rejected from
// the file size alone, before the decoder allocates anything.
func TestReadShardRejectsHostileHeaders(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, words []uint32, tail []byte) string {
		b := &bytes.Buffer{}
		putU32s(b, words...)
		b.Write(tail)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cases := []string{
		mk("badmagic", []uint32{0xdeadbeef, 2, 1, 0, 0, 1, 1}, make([]byte, 6)),
		mk("badver", []uint32{0x50424753, 3, 1, 0, 0, 1, 1}, make([]byte, 6)),
		mk("badcodec", []uint32{0x50424753, 2, 9, 0, 0, 1, 1}, make([]byte, 6)),
		mk("fp32codecv2", []uint32{0x50424753, 2, 0, 0, 0, 1, 1}, make([]byte, 8)),
		mk("trunchdr", []uint32{0x50424753, 2, 1}, nil),
		mk("truncrow", []uint32{0x50424753, 2, 1, 0, 0, 4, 4}, make([]byte, 10)),
		mk("overclaim", []uint32{0x50424753, 2, 2, 0, 0, 1 << 30, 1 << 30}, make([]byte, 16)),
		mk("trailing", []uint32{0x50424753, 2, 1, 0, 0, 1, 1}, make([]byte, 20)),
		mk("v1trunc", []uint32{0x50424753, 1, 0, 0, 8, 8}, make([]byte, 12)),
		mk("v1overclaim", []uint32{0x50424753, 1, 0, 0, 1 << 31, 1 << 31}, nil),
	}
	for _, path := range cases {
		if _, _, err := ReadShardCodec(path); err == nil {
			t.Fatalf("%s: hostile header accepted", filepath.Base(path))
		}
	}
	// A well-formed empty shard is still fine under every codec.
	empty := NewShard(0, 0, 0, 4)
	for _, c := range Codecs() {
		path := filepath.Join(dir, "empty.pbg")
		if err := WriteShardCodec(path, empty, c); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		if _, _, err := ReadShardCodec(path); err != nil {
			t.Fatalf("%v: empty shard rejected: %v", c, err)
		}
	}
}

// copyShard returns a private copy of s: a released shard's buffers are the
// cache's to reuse for the next load.
func copyShard(s *Shard) *Shard {
	return &Shard{
		TypeIndex: s.TypeIndex, Part: s.Part, Count: s.Count, Dim: s.Dim,
		Embs: append([]float32(nil), s.Embs...),
		Acc:  append([]float32(nil), s.Acc...),
	}
}

// TestDiskStoreCodecRoundTrip exercises the full swap cycle under each
// quantized codec: mutate, release (async write-back), re-acquire — the
// reloaded state must be the quantized image of what was released, the
// Adagrad state must be exact, and the file on disk must be v2.
func TestDiskStoreCodecRoundTrip(t *testing.T) {
	for _, c := range []Codec{CodecFP16, CodecInt8} {
		t.Run(c.String(), func(t *testing.T) {
			dir := t.TempDir()
			st := newTestDisk(t, dir, testSchema(t), 8, 1, 1)
			st.SetCodec(c)
			sh, err := st.Acquire(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			sh.Row(1)[3] = 7.5
			sh.Acc[1] = 2.0
			released := copyShard(sh)
			if err := st.Release(0, 2); err != nil {
				t.Fatal(err)
			}
			if err := st.Drain(); err != nil {
				t.Fatal(err)
			}
			if _, gc, err := ReadShardCodec(ShardPath(dir, 0, 2)); err != nil || gc != c {
				t.Fatalf("on-disk codec %v err %v, want %v", gc, err, c)
			}
			got, err := st.Acquire(0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got.Acc[1] != 2.0 {
				t.Fatalf("Adagrad state lost: %v", got.Acc[1])
			}
			for row := 0; row < released.Count; row++ {
				var bound float64
				if c == CodecInt8 {
					bound = float64(vec.I8RowScale(released.Row(row)))/2*(1+1e-6) + 1e-30
				}
				for i, x := range released.Row(row) {
					y := got.Row(row)[i]
					switch c {
					case CodecFP16:
						if y != vec.F16Value(vec.F16Bits(x)) {
							t.Fatalf("row %d elem %d: %v not the fp16 image of %v", row, i, y, x)
						}
					case CodecInt8:
						if d := math.Abs(float64(x) - float64(y)); d > bound {
							t.Fatalf("row %d elem %d: error %g > %g", row, i, d, bound)
						}
					}
				}
			}
			if err := st.Release(0, 2); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDiskStoreBudgetChargesQuantizedBytes pins the pricing side of the
// tentpole: at a fixed SetMaxResidentBytes budget, admission must charge
// ProjectedShardBytesCodec — so a working set whose fp32 pricing sheds
// prefetch hints is admitted in full under int8, and ResidentBytes stays
// within the quantized pricing.
func TestDiskStoreBudgetChargesQuantizedBytes(t *testing.T) {
	schema := testSchema(t)
	const dim = 16
	// Budget: every node shard at int8 pricing, well under two at fp32.
	var i8All, fp32One int64
	for p := 0; p < 4; p++ {
		i8All += ProjectedShardBytesCodec(schema, dim, 0, p, CodecInt8)
	}
	fp32One = ProjectedShardBytes(schema, dim, 0, 0)
	if i8All >= 2*fp32One {
		t.Fatalf("test geometry broken: int8 total %d vs fp32 shard %d", i8All, fp32One)
	}
	budget := i8All

	run := func(c Codec) IOStats {
		dir := t.TempDir()
		st := newTestDisk(t, dir, schema, dim, 1, 1)
		st.SetCodec(c)
		st.SetMaxResidentBytes(budget)
		for p := 0; p < 4; p++ {
			st.Prefetch(0, p)
		}
		if err := st.Drain(); err != nil {
			t.Fatal(err)
		}
		if got, want := st.ResidentBytes(), budget; got > want {
			t.Fatalf("%v: resident %d over budget %d", c, got, want)
		}
		io := st.IOStats()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		return io
	}

	if io := run(CodecInt8); io.PrefetchSheds != 0 || io.Admits != 4 {
		t.Fatalf("int8 pricing should admit all 4 hints, got %+v", io)
	}
	if io := run(CodecFP32); io.PrefetchSheds == 0 {
		t.Fatalf("fp32 pricing at the int8 budget should shed hints, got %+v", io)
	}
}

func TestParseCodec(t *testing.T) {
	cases := map[string]Codec{
		"": CodecFP32, "fp32": CodecFP32, "float32": CodecFP32,
		"fp16": CodecFP16, "half": CodecFP16,
		"int8": CodecInt8, "i8": CodecInt8,
	}
	for in, want := range cases {
		got, err := ParseCodec(in)
		if err != nil || got != want {
			t.Fatalf("ParseCodec(%q) = %v, %v", in, got, err)
		}
		if in != "" && in != "float32" && in != "half" && in != "i8" {
			if got.String() != in {
				t.Fatalf("String round trip: %q -> %q", in, got.String())
			}
		}
	}
	if _, err := ParseCodec("bf16"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestProjectedShardBytesCodec(t *testing.T) {
	schema := testSchema(t)
	// node: 20 entities / 4 partitions = 5 rows; dim 8.
	fp32 := ProjectedShardBytesCodec(schema, 8, 0, 0, CodecFP32)
	fp16 := ProjectedShardBytesCodec(schema, 8, 0, 0, CodecFP16)
	int8 := ProjectedShardBytesCodec(schema, 8, 0, 0, CodecInt8)
	if fp32 != 5*9*4 {
		t.Fatalf("fp32 = %d", fp32)
	}
	if fp16 != 5*8*2+5*4 {
		t.Fatalf("fp16 = %d", fp16)
	}
	if int8 != 5*4+5*8+5*4 {
		t.Fatalf("int8 = %d", int8)
	}
	if fp32 != ProjectedShardBytes(schema, 8, 0, 0) {
		t.Fatal("fp32 pricing drifted from ProjectedShardBytes")
	}
	// The acceptance bar: ≥2× shard-byte reduction for int8 at any dim;
	// fp16 approaches 2× from below (the Adagrad block stays fp32, so the
	// ratio is 4(d+1)/(2d+4)) and must clear 1.9× at serving dims.
	for _, dim := range []int{16, 64, 128} {
		f32 := float64(ProjectedShardBytesCodec(schema, dim, 0, 0, CodecFP32))
		if q := float64(ProjectedShardBytesCodec(schema, dim, 0, 0, CodecInt8)); f32 < 2*q {
			t.Fatalf("dim %d int8: %v not ≥2× smaller than %v", dim, q, f32)
		}
		if q := float64(ProjectedShardBytesCodec(schema, dim, 0, 0, CodecFP16)); dim >= 64 && f32 < 1.9*q {
			t.Fatalf("dim %d fp16: %v not ≥1.9× smaller than %v", dim, q, f32)
		}
	}
}
