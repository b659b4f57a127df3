package storage

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pbg/internal/graph"
	"pbg/internal/vec"
)

// Codec selects the on-disk encoding of a shard's embedding block. The
// Adagrad accumulators always stay float32 — they are a running sum of
// squared gradients whose dynamic range quantization would clip, and at one
// cell per row they are a 1/(dim+1) fraction of the shard anyway.
//
//	fp32  v1 format, bit-exact round trip (the only format before v2).
//	fp16  IEEE binary16 embeddings, round-to-nearest-even, ±Inf-free
//	      (overflow clamps to ±65504): 2 bytes/cell, ~2× smaller.
//	int8  per-row symmetric int8 with one float32 scale per row
//	      (scale = maxabs/127): ~4× smaller, error ≤ maxabs(row)/254.
//
// The codec is a property of the run, not the file: DiskStore.SetCodec
// makes every write-back, flush, and budget-admission price use it, while
// ReadShard transparently decodes whatever version a file actually is — so
// switching codecs between runs over the same directory just works, and
// mixed directories (mid-migration) load fine.
type Codec uint8

const (
	CodecFP32 Codec = iota
	CodecFP16
	CodecInt8
)

// Codecs lists every codec, for test matrices and bench sweeps.
func Codecs() []Codec { return []Codec{CodecFP32, CodecFP16, CodecInt8} }

// String implements fmt.Stringer with the flag spellings ParseCodec accepts.
func (c Codec) String() string {
	switch c {
	case CodecFP32:
		return "fp32"
	case CodecFP16:
		return "fp16"
	case CodecInt8:
		return "int8"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// ParseCodec parses a -codec flag value.
func ParseCodec(s string) (Codec, error) {
	switch s {
	case "", "fp32", "f32", "float32":
		return CodecFP32, nil
	case "fp16", "f16", "half":
		return CodecFP16, nil
	case "int8", "i8":
		return CodecInt8, nil
	default:
		return 0, fmt.Errorf("storage: unknown codec %q (want fp32, fp16 or int8)", s)
	}
}

// ProjectedShardBytesCodec prices shard (t,p) under codec c, from the
// schema alone: the embedding block at codec width, the int8 per-row scale
// block, and the always-fp32 Adagrad block, without the file header. It is
// ProjectedShardBytes generalised: admission budgets, the lookahead
// controller, and buffer-slot pricing all route through it, so choosing a
// 2–4× smaller codec automatically widens every one of those windows at the
// same byte budget — the store's steady-state footprint is quantized bytes,
// with decoded fp32 views living only transiently above it (see
// DiskStore.SetCodec).
func ProjectedShardBytesCodec(schema *graph.Schema, dim, t, p int, c Codec) int64 {
	return Layout{Codec: c, Count: schema.Entities[t].PartitionCount(p), Dim: dim}.payloadBytes()
}

// WriteShardCodec persists a shard to path atomically under codec c, as the
// image Layout describes. CodecFP32 is bit-exact; fp16 and int8 quantize the
// embedding block on the way out and leave the in-memory shard untouched.
func WriteShardCodec(path string, s *Shard, c Codec) error {
	l := LayoutOf(s, c)
	if c == CodecFP32 && hostLittleEndian {
		// The image is a header and two blocks that already are their bytes:
		// three writes straight to the file, nothing to buffer.
		return writeFileAtomic(path, func(f *os.File) error { return l.EncodeTo(f, s) })
	}
	return writeFileAtomic(path, buffered(func(w *bufio.Writer) error { return l.EncodeTo(w, s) }))
}

// WriteShardImage persists an already-encoded shard image — bytes that have
// passed ParseLayout — to path atomically: the file WriteShardCodec would
// write for the shard the image decodes to, without decoding it.
func WriteShardImage(path string, image []byte) error {
	return writeFileAtomic(path, func(f *os.File) error {
		_, err := f.Write(image)
		return err
	})
}

// ReadShard loads a shard written by WriteShard or WriteShardCodec,
// transparently decoding any codec to fp32.
func ReadShard(path string) (*Shard, error) {
	s, _, err := ReadShardCodec(path)
	return s, err
}

// ReadShardCodec loads a shard and reports which codec it was stored
// under. Decoding always yields fp32 buffers; the header goes through
// ParseLayout against the real file size before any allocation.
func ReadShardCodec(path string) (*Shard, Codec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	// A file shorter than the longest header reads short; ParseLayout then
	// reports the truncation.
	var hdr [headerBytesV2]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		return nil, 0, fmt.Errorf("storage: shard header %s: %w", path, err)
	}
	l, err := ParseLayout(hdr[:n], fi.Size())
	if err != nil {
		return nil, 0, fmt.Errorf("%w (%s)", err, path)
	}
	var blocks io.Reader = io.NewSectionReader(f, l.HeaderBytes(), l.Size()-l.HeaderBytes())
	if l.Codec != CodecFP32 || !hostLittleEndian {
		blocks = bufio.NewReaderSize(blocks, 1<<20) // the chunked decoders read 8 KiB at a time
	}
	s, err := l.DecodeInto(blocks, nil)
	return s, l.Codec, err
}

// writeF16s encodes xs as binary16 through the chunked stack buffer (see
// the codec note in storage.go: the loop is spelled out, not shared).
func writeF16s(w io.Writer, xs []float32) error {
	var buf [codecChunk]byte
	for len(xs) > 0 {
		n := len(buf) / 2
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(buf[i*2:], vec.F16Bits(xs[i]))
		}
		if _, err := w.Write(buf[:n*2]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func readF16s(r io.Reader, xs []float32) error {
	var buf [codecChunk]byte
	for len(xs) > 0 {
		n := len(buf) / 2
		if n > len(xs) {
			n = len(xs)
		}
		if _, err := io.ReadFull(r, buf[:n*2]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			xs[i] = vec.F16Value(binary.LittleEndian.Uint16(buf[i*2:]))
		}
		xs = xs[n:]
	}
	return nil
}

// writeQuantI8Rows quantizes and writes the embedding block row by row,
// because the scale changes per row; the writer's buffer absorbs the per-row
// Write calls.
func writeQuantI8Rows(w io.Writer, s *Shard, scales []float32) error {
	q := make([]int8, s.Dim)
	buf := make([]byte, s.Dim)
	for r := 0; r < s.Count; r++ {
		vec.QuantI8(q, s.Row(r), scales[r])
		for i, v := range q {
			buf[i] = byte(v)
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readQuantI8Rows(r io.Reader, s *Shard, scales []float32) error {
	if s.Count == 0 {
		return nil // a row-less header may claim any dim; allocate none of it
	}
	buf := make([]byte, s.Dim)
	q := make([]int8, s.Dim)
	for row := 0; row < s.Count; row++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		for i, b := range buf {
			q[i] = int8(b)
		}
		vec.DequantI8(s.Row(row), q, scales[row])
	}
	return nil
}

// QuantShardPath is the on-disk location of the quantized sibling copy of
// shard (t, p) — the scan-side companion a serving process maps next to a
// full-precision checkpoint (see WriteQuantCopy). Training never touches
// these files.
func QuantShardPath(dir string, t, p int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_t%d_p%d.q.pbg", t, p))
}

// WriteQuantCopy writes a quantized sibling (QuantShardPath) of every shard
// in the checkpoint at dir, for the serving layer's quantized-scan +
// fp32-re-rank path: candidate generation scans the small sibling, and only
// surviving rows are re-scored from the untouched fp32 originals. The
// source shards must be fp32 (v1) — quantizing an already-quantized
// checkpoint would silently stack two rounds of error, so that is an error
// instead.
func WriteQuantCopy(dir string, schema *graph.Schema, c Codec) error {
	if c == CodecFP32 {
		return fmt.Errorf("storage: quant copy needs a quantized codec, got fp32")
	}
	for t := range schema.Entities {
		for p := 0; p < schema.Entities[t].NumPartitions; p++ {
			sh, src, err := ReadShardCodec(ShardPath(dir, t, p))
			if err != nil {
				return fmt.Errorf("storage: quant copy source (%d,%d): %w", t, p, err)
			}
			if src != CodecFP32 {
				return fmt.Errorf("storage: shard (%d,%d) is already %v; quant copies need fp32 sources", t, p, src)
			}
			if err := WriteShardCodec(QuantShardPath(dir, t, p), sh, c); err != nil {
				return err
			}
		}
	}
	return nil
}
