package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"pbg/internal/vec"
)

const (
	shardMagic    = uint32(0x50424753) // "PBGS"
	headerBytesV1 = 24
	headerBytesV2 = 28
)

// Layout is the validated geometry of one shard image and the only code in
// the repository that knows the shard format: shard files (WriteShardCodec,
// ReadShardCodec), the serving layer's zero-copy views and the partition
// servers' Get/Put payloads are all written and read through it.
//
// An image is a header of little-endian uint32 words followed by up to
// three blocks:
//
//	v1 (fp32)        {magic "PBGS", 1, typeIndex, part, count, dim}         24 bytes
//	v2 (fp16, int8)  {magic "PBGS", 2, codec, typeIndex, part, count, dim}  28 bytes
//
//	scales  count float32 row scales                     int8 only
//	embs    count×dim cells: float32 | binary16 | int8   row major
//	acc     count float32 Adagrad accumulators           always fp32
//
// Both header sizes are multiples of 4 and the scale block is count×4
// bytes, so in a 4-aligned buffer every block starts aligned for its
// element type — which is what lets the serving layer view the blocks in
// place. fp32 shards keep the v1 header (no codec word) so files written
// before the codecs existed stay valid.
type Layout struct {
	Codec     Codec
	TypeIndex int
	Part      int
	Count     int
	Dim       int
}

// LayoutOf describes shard s stored under codec c.
func LayoutOf(s *Shard, c Codec) Layout {
	return Layout{Codec: c, TypeIndex: s.TypeIndex, Part: s.Part, Count: s.Count, Dim: s.Dim}
}

// ParseLayout is the bounds gate every shard image passes before a byte of
// its payload is read: b holds at least the image's header (the whole
// image is fine) and size is the image's real byte length — the file size,
// the mapping length, the RPC payload length. It rejects anything that is
// not a well-formed header whose blocks tile size exactly, so a hostile
// header can neither make a reader allocate count×dim of anything the bytes
// do not back nor leave an offset out of range. It never panics.
func ParseLayout(b []byte, size int64) (Layout, error) {
	var l Layout
	if len(b) < headerBytesV1 {
		return Layout{}, fmt.Errorf("storage: shard header truncated: %d bytes, want %d", len(b), headerBytesV1)
	}
	if magic := binary.LittleEndian.Uint32(b); magic != shardMagic {
		return Layout{}, fmt.Errorf("storage: not a shard: bad magic 0x%08x", magic)
	}
	fields := b[8:headerBytesV1]
	switch version := binary.LittleEndian.Uint32(b[4:]); version {
	case 1:
	case 2:
		if len(b) < headerBytesV2 {
			return Layout{}, fmt.Errorf("storage: v2 shard header truncated: %d bytes, want %d", len(b), headerBytesV2)
		}
		codec := binary.LittleEndian.Uint32(b[8:])
		if codec != uint32(CodecFP16) && codec != uint32(CodecInt8) {
			return Layout{}, fmt.Errorf("storage: bad v2 shard codec %d", codec)
		}
		l.Codec = Codec(codec)
		fields = b[12:headerBytesV2]
	default:
		return Layout{}, fmt.Errorf("storage: unsupported shard version %d", version)
	}
	var w [4]uint32 // typeIndex, part, count, dim
	for i := range w {
		if w[i] = binary.LittleEndian.Uint32(fields[4*i:]); w[i] > math.MaxInt32 {
			return Layout{}, fmt.Errorf("storage: shard header field %d out of range (%d)", i, w[i])
		}
	}
	count, dim := int64(w[2]), int64(w[3])
	if count > 0 && dim == 0 {
		return Layout{}, fmt.Errorf("storage: shard has %d rows but dim 0", count)
	}
	if dim > 0 && count > (1<<59)/dim { // count*dim*4 must not overflow int64
		return Layout{}, fmt.Errorf("storage: shard geometry overflow (count %d × dim %d)", count, dim)
	}
	l.TypeIndex, l.Part, l.Count, l.Dim = int(w[0]), int(w[1]), int(w[2]), int(w[3])
	if want := l.Size(); size != want {
		return Layout{}, fmt.Errorf("storage: shard is %d bytes, want %d for count %d × dim %d under %v",
			size, want, count, dim, l.Codec)
	}
	return l, nil
}

// CheckShape is nil when l describes a shard of want's type, partition,
// row count and dim, whatever the codecs, and otherwise an error naming
// both shapes, for the caller to say where the image came from: it belongs
// to another configuration.
func (l Layout) CheckShape(want Layout) error {
	if l.TypeIndex != want.TypeIndex || l.Part != want.Part || l.Count != want.Count || l.Dim != want.Dim {
		return fmt.Errorf("shard (%d,%d) of %d×%d where (%d,%d) of %d×%d is wanted",
			l.TypeIndex, l.Part, l.Count, l.Dim, want.TypeIndex, want.Part, want.Count, want.Dim)
	}
	return nil
}

// HeaderBytes is the length of the header, and so the offset of the first
// block.
func (l Layout) HeaderBytes() int64 {
	if l.Codec == CodecFP32 {
		return headerBytesV1
	}
	return headerBytesV2
}

// Scales locates the int8 per-row scale block (n is 0 under other codecs).
func (l Layout) Scales() (off, n int64) {
	if l.Codec == CodecInt8 {
		n = int64(l.Count) * 4
	}
	return l.HeaderBytes(), n
}

// Embs locates the embedding block, count×dim cells at the codec's width.
func (l Layout) Embs() (off, n int64) {
	width := int64(4)
	switch l.Codec {
	case CodecFP16:
		width = 2
	case CodecInt8:
		width = 1
	}
	off, n = l.Scales()
	return off + n, int64(l.Count) * int64(l.Dim) * width
}

// Acc locates the fp32 Adagrad block.
func (l Layout) Acc() (off, n int64) {
	off, n = l.Embs()
	return off + n, int64(l.Count) * 4
}

// Size is the exact byte length of the image.
func (l Layout) Size() int64 {
	off, n := l.Acc()
	return off + n
}

// appendHeader appends the encoded header to dst.
func (l Layout) appendHeader(dst []byte) []byte {
	words := []uint32{shardMagic, 1}
	if l.Codec != CodecFP32 {
		words = []uint32{shardMagic, 2, uint32(l.Codec)}
	}
	for _, v := range append(words, uint32(l.TypeIndex), uint32(l.Part), uint32(l.Count), uint32(l.Dim)) {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

// Encode returns the image of s as one buffer (what a partition server
// keeps).
func (l Layout) Encode(s *Shard) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, l.Size()))
	if err := l.EncodeTo(buf, s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode decodes the image b, which ParseLayout accepted as l, to fp32.
func (l Layout) Decode(b []byte) (*Shard, error) {
	if int64(len(b)) != l.Size() {
		return nil, fmt.Errorf("storage: shard image is %d bytes, layout says %d", len(b), l.Size())
	}
	return l.DecodeInto(bytes.NewReader(b[l.HeaderBytes():]), nil)
}

// EncodeTo streams the image of s to w: shard files and the trainers' Put
// both leave through it. The in-memory shard is not modified: fp16 and int8
// quantize the embedding block on the way out in 8 KiB chunks; the float32
// blocks — fp32 embeddings, scales, accumulators — go out as one Write each,
// straight from the shard's own memory, where the host is little-endian
// (writeFloats), and through the portable chunked encoder elsewhere.
func (l Layout) EncodeTo(w io.Writer, s *Shard) error {
	if l.Codec > CodecInt8 {
		return fmt.Errorf("storage: cannot encode codec %v", l.Codec)
	}
	if l != LayoutOf(s, l.Codec) || len(s.Embs) != l.Count*l.Dim || len(s.Acc) != l.Count {
		return fmt.Errorf("storage: shard (%d,%d) %d×%d with %d embedding and %d accumulator cells does not fill a (%d,%d) %d×%d layout",
			s.TypeIndex, s.Part, s.Count, s.Dim, len(s.Embs), len(s.Acc), l.TypeIndex, l.Part, l.Count, l.Dim)
	}
	if _, err := w.Write(l.appendHeader(make([]byte, 0, headerBytesV2))); err != nil {
		return err
	}
	switch l.Codec {
	case CodecFP32:
		if err := writeFloats(w, s.Embs); err != nil {
			return err
		}
	case CodecFP16:
		if err := writeF16s(w, s.Embs); err != nil {
			return err
		}
	case CodecInt8:
		scales := make([]float32, s.Count)
		for r := range scales {
			scales[r] = vec.I8RowScale(s.Row(r))
		}
		if err := writeFloats(w, scales); err != nil {
			return err
		}
		if err := writeQuantI8Rows(w, s, scales); err != nil {
			return err
		}
	}
	return writeFloats(w, s.Acc)
}

// shard returns a shard of l's shape for the caller to overwrite whole:
// reuse, relabelled and resliced, when its buffers are large enough — the
// caller must own it outright — and a fresh zeroed one otherwise (reuse may
// be nil).
func (l Layout) shard(reuse *Shard) *Shard {
	if s := reuse; s != nil && cap(s.Embs) >= l.Count*l.Dim && cap(s.Acc) >= l.Count {
		s.TypeIndex, s.Part, s.Count, s.Dim = l.TypeIndex, l.Part, l.Count, l.Dim
		s.Embs, s.Acc = s.Embs[:l.Count*l.Dim], s.Acc[:l.Count]
		return s
	}
	return NewShard(l.TypeIndex, l.Part, l.Count, l.Dim)
}

// DecodeInto reads the blocks that follow the header from r into an fp32
// shard and returns it: reuse, overwritten whole, when its buffers are
// large enough (the caller must own it), else a fresh one backed by bytes
// ParseLayout saw. On a little-endian host the float32 blocks are read
// straight into the shard's memory.
func (l Layout) DecodeInto(r io.Reader, reuse *Shard) (*Shard, error) {
	s := l.shard(reuse)
	switch l.Codec {
	case CodecFP32:
		if err := readFloats(r, s.Embs); err != nil {
			return nil, err
		}
	case CodecFP16:
		if err := readF16s(r, s.Embs); err != nil {
			return nil, err
		}
	case CodecInt8:
		scales := make([]float32, s.Count)
		if err := readFloats(r, scales); err != nil {
			return nil, err
		}
		if err := readQuantI8Rows(r, s, scales); err != nil {
			return nil, err
		}
	}
	if err := readFloats(r, s.Acc); err != nil {
		return nil, err
	}
	return s, nil
}
