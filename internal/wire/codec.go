package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// The flat encoding is fixed-width little-endian with no tags: an int is 8
// bytes (two's complement), an int32 and a float32 4, a bool one byte that is
// 0 or 1, a string or slice a uint32 count followed by its elements. Every
// value has exactly one encoding, so a payload that parses re-encodes to the
// same bytes — which is what the fuzzers hold the parsers to. The
// checkpoint's flat files, relations.pbg (internal/storage) and ivf.pbg
// (internal/serve), are walks too, over the same fields plus what their
// layouts need: uint64 counts (Count64), and counts and runs laid out apart
// from their elements (Count, Make, FloatsN).

// Fields is a cursor that either appends a message's fields or decodes them.
// A flat message describes its bytes once, as a walk over a *Fields naming
// each field by pointer in wire order; that walk is both its encoder
// (Encode) and its decoder (Decode). Decoding, a read past the end, a count
// the remaining bytes cannot back or that exceeds its bound, and a
// non-canonical value set a sticky error, drop the bytes left and leave zero
// values, so a walk visits its fields unconditionally and Decode checks
// once. Nothing decoded aliases the payload.
//
// A connection owns one cursor for its reader and one for its writers, so a
// message that crosses the wire allocates none; the zero value is ready.
// Encode and Decode leave the cursor zero, so it holds on to no buffer the
// connection has let go.
type Fields struct {
	b      []byte // appending: the output so far; decoding: the bytes left
	decode bool
	err    error
}

// Encode appends the encoding walk describes to dst, through f.
func (f *Fields) Encode(dst []byte, walk func(*Fields)) []byte {
	*f = Fields{b: dst}
	walk(f)
	dst = f.b
	*f = Fields{}
	return dst
}

// Decode decodes payload b through walk, with f as the cursor. It reports
// the first failure, or trailing bytes no field claimed.
func (f *Fields) Decode(b []byte, walk func(*Fields)) error {
	*f = Fields{b: b, decode: true}
	walk(f)
	if f.err == nil && len(f.b) > 0 {
		f.fail("%d trailing payload bytes", len(f.b))
	}
	err := f.err
	*f = Fields{}
	return err
}

// Append is Encode with a cursor of its own: the writer of the checkpoint's
// flat files.
func Append(dst []byte, walk func(*Fields)) []byte { return new(Fields).Encode(dst, walk) }

// Parse is Decode with a cursor of its own: the reader of the checkpoint's
// flat files.
func Parse(b []byte, walk func(*Fields)) error { return new(Fields).Decode(b, walk) }

var errTruncated = errors.New("wire: payload truncated")

// fail records the first failure; dropping the bytes left makes every later
// read fail too.
func (f *Fields) fail(format string, args ...any) {
	if f.err == nil {
		f.err = fmt.Errorf("wire: "+format, args...)
	}
	f.b = nil
}

// take consumes n bytes, or fails and returns nil. It fails without fail's
// formatting, which keeps it small enough to inline.
func (f *Fields) take(n int) []byte {
	if n > len(f.b) {
		if f.err == nil {
			f.err = errTruncated
		}
		f.b = nil
		return nil
	}
	out := f.b[:n:n]
	f.b = f.b[n:]
	return out
}

// u64 and u32 move one little-endian word. Appending, they return v;
// decoding, the word read — 0 once the walk has failed.
func (f *Fields) u64(v uint64) uint64 {
	if !f.decode {
		f.b = binary.LittleEndian.AppendUint64(f.b, v)
	} else if b := f.take(8); b != nil {
		v = binary.LittleEndian.Uint64(b)
	} else {
		v = 0
	}
	return v
}

func (f *Fields) u32(v uint32) uint32 {
	if !f.decode {
		f.b = binary.LittleEndian.AppendUint32(f.b, v)
	} else if b := f.take(4); b != nil {
		v = binary.LittleEndian.Uint32(b)
	} else {
		v = 0
	}
	return v
}

// set stores a decoded value; appending leaves the message untouched.
func set[T any](f *Fields, p *T, v T) {
	if f.decode {
		*p = v
	}
}

// Uint64, Int64, Int32, Float32 and Float64 move one fixed-width value.
func (f *Fields) Uint64(p *uint64)   { set(f, p, f.u64(*p)) }
func (f *Fields) Int64(p *int64)     { set(f, p, int64(f.u64(uint64(*p)))) }
func (f *Fields) Int32(p *int32)     { set(f, p, int32(f.u32(uint32(*p)))) }
func (f *Fields) Float64(p *float64) { set(f, p, math.Float64frombits(f.u64(math.Float64bits(*p)))) }
func (f *Fields) Float32(p *float32) { set(f, p, math.Float32frombits(f.u32(math.Float32bits(*p)))) }

// Int moves an 8-byte signed integer, which must fit the host's int.
func (f *Fields) Int(p *int) {
	v := int64(f.u64(uint64(*p)))
	if int64(int(v)) != v {
		f.fail("integer %d overflows int", v)
		v = 0
	}
	set(f, p, int(v))
}

// Bool moves one byte, which must be 0 or 1.
func (f *Fields) Bool(p *bool) {
	if !f.decode {
		if *p {
			f.b = append(f.b, 1)
		} else {
			f.b = append(f.b, 0)
		}
		return
	}
	b := f.take(1)
	if b != nil && b[0] > 1 {
		f.fail("bool byte %d", b[0])
	}
	*p = b != nil && b[0] == 1
}

// Time moves an instant as 8 bytes of Unix nanoseconds, 0 for the zero time;
// the monotonic reading and the location do not cross.
func (f *Fields) Time(p *time.Time) {
	var ns int64
	if !p.IsZero() {
		ns = p.UnixNano()
	}
	if f.Int64(&ns); ns == 0 {
		set(f, p, time.Time{})
	} else {
		set(f, p, time.Unix(0, ns))
	}
}

// count moves an element count in a little-endian word of width bytes (4
// or 8). Decoding, it holds the count to max (when max > 0) and to what the
// remaining bytes can back at elemBytes (≥ 1) an element, so the caller may
// allocate that many: the allocation is backed by bytes that exist.
func (f *Fields) count(n, width, elemBytes, max int) int {
	var c uint64
	if width == 8 {
		c = f.u64(uint64(n))
	} else {
		c = uint64(f.u32(uint32(n)))
	}
	switch {
	case !f.decode:
	case max > 0 && c > uint64(max):
		f.fail("count %d exceeds the limit %d", c, max)
	case c > uint64(len(f.b)/elemBytes):
		f.fail("count %d × %d bytes exceeds the %d bytes left", c, elemBytes, len(f.b))
	}
	if f.err != nil {
		return 0
	}
	return int(c)
}

// Count moves an element count as a uint32, and Count64 as a uint64, for a
// walk that lays its elements out itself (Make, FloatsN). Decoding, each
// holds the count to what the bytes left can back at elemBytes (≥ 1) an
// element, as the count-prefixed fields below do.
func (f *Fields) Count(n *int, elemBytes int)   { set(f, n, f.count(*n, 4, elemBytes, 0)) }
func (f *Fields) Count64(n *int, elemBytes int) { set(f, n, f.count(*n, 8, elemBytes, 0)) }

// Make sizes a slice the walk then fills element by element: decoding, *s
// becomes n zero elements, nil when n is 0; appending leaves it as it is. n
// must be a count the walk has moved and held to the bytes left.
func Make[T any](f *Fields, s *[]T, n int) {
	if f.decode {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}

// words consumes n 4-byte words, or fails and returns nil.
func (f *Fields) words(n int) []byte {
	if n < 0 || n > len(f.b)/4 {
		f.fail("%d words, %d bytes left", n, len(f.b))
		return nil
	}
	return f.take(4 * n)
}

// String moves a count-prefixed string.
func (f *Fields) String(p *string) {
	if n := f.count(len(*p), 4, 1, 0); f.decode {
		*p = string(f.take(n))
	} else {
		f.b = append(f.b, *p...)
	}
}

// Floats moves a count-prefixed []float32; nil when the count is 0.
func (f *Fields) Floats(p *[]float32) { f.FloatsN(p, f.count(len(*p), 4, 4, 0)) }

// FloatsN moves a run of n float32s with no count before it, in one loop:
// appending, *p, whose length is n; decoding, a fresh slice of n (nil when n
// is 0), allocated once the bytes are in hand.
func (f *Fields) FloatsN(p *[]float32, n int) {
	if !f.decode {
		b := f.b
		for _, x := range *p {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
		}
		f.b = b
		return
	}
	*p = nil
	b := f.words(n)
	if n == 0 || b == nil {
		return
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	*p = out
}

// Int32s moves a count-prefixed []int32, in one loop; nil when the count is
// 0.
func (f *Fields) Int32s(p *[]int32) {
	n := f.count(len(*p), 4, 4, 0)
	if !f.decode {
		b := f.b
		for _, x := range *p {
			b = binary.LittleEndian.AppendUint32(b, uint32(x))
		}
		f.b = b
		return
	}
	*p = nil
	b := f.words(n)
	if n == 0 || b == nil {
		return
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	*p = out
}

// Slice moves a count-prefixed slice whose elements walk through elem. An
// element takes at least minBytes (≥ 1) on the wire and there may be at most
// max of them (max ≤ 0: no bound but the bytes); decoding allocates the
// slice only once the count has passed both checks, and leaves nil when it
// is 0.
func Slice[T any](f *Fields, s *[]T, minBytes, max int, elem func(*T, *Fields)) {
	Make(f, s, f.count(len(*s), 4, minBytes, max))
	for i := range *s {
		elem(&(*s)[i], f)
	}
}

// Empty is the walk of a message without fields; such a message embeds it.
type Empty struct{}

func (*Empty) Fields(*Fields) {}
