package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The flat encoding is fixed-width little-endian with no tags: an int is 8
// bytes (two's complement), an int32 and a float32 4, a bool one byte that is
// 0 or 1, a string or slice a uint32 count followed by its elements. Every
// value has exactly one encoding, so a payload that parses re-encodes to the
// same bytes — which is what the fuzzers hold the parsers to.

// AppendInt appends an int as 8 bytes.
func AppendInt(dst []byte, v int) []byte { return AppendInt64(dst, int64(v)) }

// AppendInt64 appends an int64 as 8 bytes.
func AppendInt64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

// AppendBool appends a bool as one byte.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendFloats appends a count-prefixed []float32.
func AppendFloats(dst []byte, xs []float32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(x))
	}
	return dst
}

// AppendString appends a count-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// Empty is the encoding of a message without fields; such a message embeds
// it.
type Empty struct{}

func (Empty) AppendWire(dst []byte) []byte { return dst }

func (Empty) ParseWire(b []byte) error { return NewDec(b).Done() }

// Dec is a cursor over a flat payload. Reads past the end, counts the
// remaining bytes cannot back, and non-canonical values set a sticky error
// and yield zero values, so a parser reads its fields unconditionally and
// checks Done once. Nothing a Dec returns aliases the payload.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a cursor at the start of payload b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// take consumes n bytes, or fails and returns nil.
func (d *Dec) take(n int) []byte {
	if d.err != nil || n > len(d.b) {
		d.fail("payload truncated: %d bytes left, field needs %d", len(d.b), n)
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

// Uint64 reads 8 bytes.
func (d *Dec) Uint64() uint64 {
	if b := d.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Uint32 reads 4 bytes.
func (d *Dec) Uint32() uint32 {
	if b := d.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Int64 reads an 8-byte signed integer.
func (d *Dec) Int64() int64 { return int64(d.Uint64()) }

// Int reads an 8-byte signed integer that must fit the host's int.
func (d *Dec) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Int32 reads a 4-byte signed integer.
func (d *Dec) Int32() int32 { return int32(d.Uint32()) }

// Float32 reads a 4-byte float.
func (d *Dec) Float32() float32 { return math.Float32frombits(d.Uint32()) }

// Float64 reads an 8-byte float.
func (d *Dec) Float64() float64 { return math.Float64frombits(d.Uint64()) }

// Bool reads one byte, which must be 0 or 1.
func (d *Dec) Bool() bool {
	b := d.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		d.fail("bool byte %d", b[0])
	}
	return b[0] == 1
}

// Count reads a uint32 element count and checks that the remaining payload
// can hold that many elements of at least elemBytes each, so a caller may
// allocate count elements: the allocation is backed by bytes that exist.
func (d *Dec) Count(elemBytes int) int {
	n := d.Uint32()
	if d.err != nil {
		return 0
	}
	if uint64(n)*uint64(elemBytes) > uint64(len(d.b)) {
		d.fail("count %d × %d bytes exceeds the %d bytes left", n, elemBytes, len(d.b))
		return 0
	}
	return int(n)
}

// Floats reads a count-prefixed []float32; nil when the count is 0.
func (d *Dec) Floats() []float32 {
	n := d.Count(4)
	if n == 0 {
		return nil
	}
	b := d.take(4 * n)
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// String reads a count-prefixed string.
func (d *Dec) String() string {
	return string(d.take(d.Count(1)))
}

// Done reports the first failure, or trailing bytes no field claimed.
func (d *Dec) Done() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing payload bytes", len(d.b))
	}
	return d.err
}
