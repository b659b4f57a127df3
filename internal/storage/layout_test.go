package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pbg/internal/rng"
)

// seededShard is the fixed 7×5 shard behind the byte-compat pins.
func seededShard() *Shard {
	sh := NewShard(3, 2, 7, 5)
	sh.Init(rng.New(20190331), 1)
	for i := range sh.Acc {
		sh.Acc[i] = 0.5 + float32(i)*0.25
	}
	return sh
}

// TestShardBytesMatchParentCommit pins WriteShardCodec's output for the
// seeded shard to the SHA-256 of what the commit before Layout existed
// (4930a5f) wrote for it, so every checkpoint, .q.pbg sibling and durable
// partition-server directory written before this format description was
// centralised keeps loading — and to Layout.Encode, the wire's form of the
// same bytes.
func TestShardBytesMatchParentCommit(t *testing.T) {
	want := map[Codec]string{
		CodecFP32: "cb416826e6580ebea74515818f3ee654becf0a8af96e9d9915e5dfae04e656d1",
		CodecFP16: "e72cc8ce1bef397d7bed8974bb2e3edd7fd43fe804cf4054a61ed8c4f7ff71a3",
		CodecInt8: "f107f023f124e124ba15bbc869e2b31f30db8adc19f10b0bfab13fa10aa3873f",
	}
	dir := t.TempDir()
	for _, c := range Codecs() {
		path := filepath.Join(dir, c.String()+".pbg")
		if err := WriteShardCodec(path, seededShard(), c); err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(file)
		if got := hex.EncodeToString(sum[:]); got != want[c] {
			t.Errorf("%v: file sha256 %s, parent commit wrote %s", c, got, want[c])
		}
		wire, err := LayoutOf(seededShard(), c).Encode(seededShard())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, file) {
			t.Errorf("%v: Layout.Encode and WriteShardCodec disagree", c)
		}
	}
}

// TestLayoutHeaderRoundTrip checks that header encode → ParseLayout returns
// every field, for both header versions and the extreme field values.
func TestLayoutHeaderRoundTrip(t *testing.T) {
	for _, c := range Codecs() {
		for _, l := range []Layout{
			{Codec: c},
			{Codec: c, TypeIndex: 3, Part: 2, Count: 7, Dim: 5},
			{Codec: c, TypeIndex: math.MaxInt32, Part: math.MaxInt32, Count: 0, Dim: math.MaxInt32},
			{Codec: c, TypeIndex: 1, Part: 0, Count: math.MaxInt32, Dim: 1},
		} {
			hdr := l.appendHeader(nil)
			if int64(len(hdr)) != l.HeaderBytes() {
				t.Fatalf("%+v: header is %d bytes, HeaderBytes says %d", l, len(hdr), l.HeaderBytes())
			}
			got, err := ParseLayout(hdr, l.Size())
			if err != nil {
				t.Fatalf("%+v: %v", l, err)
			}
			if got != l {
				t.Fatalf("round trip changed the layout: wrote %+v, parsed %+v", l, got)
			}
		}
	}
}

// checkLayoutSpans asserts that the blocks l reports tile [HeaderBytes,
// size) in order with no gap, so every offset+length lies inside the image.
func checkLayoutSpans(t *testing.T, l Layout, size int64) {
	t.Helper()
	so, sn := l.Scales()
	eo, en := l.Embs()
	ao, an := l.Acc()
	next := l.HeaderBytes()
	for i, span := range [][2]int64{{so, sn}, {eo, en}, {ao, an}} {
		off, n := span[0], span[1]
		if off != next || n < 0 || off+n > size {
			t.Fatalf("%+v: block %d [%d,+%d) does not continue at %d inside %d bytes", l, i, off, n, next, size)
		}
		next = off + n
	}
	if next != size || l.Size() != size {
		t.Fatalf("%+v: blocks end at %d, Size %d, image is %d bytes", l, next, l.Size(), size)
	}
}

// FuzzShardLayout drives the one shard bounds gate with arbitrary bytes —
// the gate behind shard files (training, DiskStore loads, the partition
// servers' durable restore), the serving views and the dist wire.
// ParseLayout must reject malformed input with an error, never a panic;
// whatever it accepts must report blocks that lie inside the input and tile
// it exactly, carry the header it re-encodes to, and decode without error
// to the same shard from memory (Layout.Decode) and from a file
// (ReadShardCodec). An fp32 image additionally runs the parity leg: the
// byte-view fast path and the portable per-float loops must read the same
// floats out of it and write the same bytes back — NaN payloads included,
// bit for bit.
func FuzzShardLayout(f *testing.F) {
	for _, c := range Codecs() {
		for _, sh := range []*Shard{seededShard(), NewShard(1, 2, 0, 0), NewShard(0, 1, 1, 7)} {
			img, err := LayoutOf(sh, c).Encode(sh)
			if err != nil {
				f.Fatal(err)
			}
			hdr := int(LayoutOf(sh, c).HeaderBytes())
			f.Add(img)
			f.Add(img[:hdr-1])                         // truncated header
			f.Add(img[:min(len(img), hdr+5)])          // truncated body
			f.Add(append(bytes.Clone(img), 0))         // trailing byte
			f.Add(patchU32(img, 0, 0xdeadbeef))        // wrong magic
			f.Add(patchU32(img, hdr-8, 0xffffffff))    // absurd count
			f.Add(patchU32(img, 8, 3))                 // v2: no such codec
			f.Add(patchU32(img, 8, uint32(CodecFP32))) // v2: fp32 must not ride v2
		}
	}

	// Row-less shards may claim any dim; no decoder may allocate it.
	for _, c := range Codecs() {
		f.Add(Layout{Codec: c, Dim: math.MaxInt32}.appendHeader(nil))
	}
	// NaNs with payloads, infinities and negative zero must cross untouched.
	odd := NewShard(0, 0, 2, 3)
	for i, bits := range []uint32{0x7fc00001, 0xffc12345, 0x7f800001, 0x7f800000, 0xff800000, 0x80000000} {
		odd.Embs[i] = math.Float32frombits(bits)
	}
	odd.Acc[0], odd.Acc[1] = math.Float32frombits(0x7fa00000), math.Float32frombits(1)
	oddImg, err := LayoutOf(odd, CodecFP32).Encode(odd)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oddImg)

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := ParseLayout(data, int64(len(data)))
		if err != nil {
			return // rejection is the expected outcome for junk
		}
		checkLayoutSpans(t, l, int64(len(data)))
		if hdr := l.appendHeader(nil); !bytes.Equal(hdr, data[:len(hdr)]) {
			t.Fatalf("accepted header %x re-encodes as %x", data[:len(hdr)], hdr)
		}
		sh, err := l.Decode(data)
		if err != nil {
			t.Fatalf("accepted image does not decode: %v", err)
		}
		if LayoutOf(sh, l.Codec) != l || len(sh.Embs) != l.Count*l.Dim || len(sh.Acc) != l.Count {
			t.Fatalf("decoded shard %d×%d (%d, %d cells) does not match %+v", sh.Count, sh.Dim, len(sh.Embs), len(sh.Acc), l)
		}
		path := filepath.Join(dir, "fuzz.pbg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, c, err := ReadShardCodec(path)
		if err != nil {
			t.Fatalf("file reader rejects what the gate accepted: %v", err)
		}
		if c != l.Codec || !sameBits(fromFile.Embs, sh.Embs) || !sameBits(fromFile.Acc, sh.Acc) {
			t.Fatalf("file reader and Layout.Decode disagree on %+v", l)
		}
		if l.Codec == CodecFP32 {
			checkFP32Parity(t, l, data, sh)
		}
	})
}

// checkFP32Parity holds the fp32 fast path (sh decoded from img by
// Layout.Decode) to the portable reference in both directions.
func checkFP32Parity(t *testing.T, l Layout, img []byte, sh *Shard) {
	t.Helper()
	ref := NewShard(l.TypeIndex, l.Part, l.Count, l.Dim)
	r := bytes.NewReader(img[l.HeaderBytes():])
	if err := readFloatsPortable(r, ref.Embs); err != nil {
		t.Fatal(err)
	}
	if err := readFloatsPortable(r, ref.Acc); err != nil {
		t.Fatal(err)
	}
	if !sameBits(ref.Embs, sh.Embs) || !sameBits(ref.Acc, sh.Acc) {
		t.Fatalf("fast and portable decoders read different floats from %+v", l)
	}
	fast, err := l.Encode(sh)
	if err != nil {
		t.Fatal(err)
	}
	portable := bytes.NewBuffer(l.appendHeader(nil))
	if err := writeFloatsPortable(portable, ref.Embs); err != nil {
		t.Fatal(err)
	}
	if err := writeFloatsPortable(portable, ref.Acc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, portable.Bytes()) || !bytes.Equal(fast, img) {
		t.Fatalf("fast encoder, portable encoder and the source image disagree on %+v", l)
	}
}

// patchU32 returns a copy of img with the little-endian word at off replaced.
func patchU32(img []byte, off int, v uint32) []byte {
	out := bytes.Clone(img)
	if off+4 <= len(out) {
		binary.LittleEndian.PutUint32(out[off:], v)
	}
	return out
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
