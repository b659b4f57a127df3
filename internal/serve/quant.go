package serve

import (
	"fmt"
	"unsafe"

	"pbg/internal/storage"
	"pbg/internal/vec"
)

// quantRows is the quantized view of one shard's embedding block: the raw
// codec bytes (zero-copy views into the file image) plus the per-row scales
// the int8 codec needs. Rows dequantize on the fly through the vec kernels
// — the fp32 working set of a quantized scan is one scratch block, never
// the whole shard.
type quantRows struct {
	codec      storage.Codec
	rows, cols int
	f16        []uint16  // fp16: rows×cols half-precision bits
	i8         []int8    // int8: rows×cols quantized cells
	scales     []float32 // int8: one scale per row
	// nbytes is the quantized payload footprint (embedding cells + scales),
	// the scan-side residency the quant gauges report.
	nbytes int64
}

// copyRow dequantizes row r into dst (len cols).
//
//pbg:hotpath
func (q *quantRows) copyRow(dst []float32, r int) {
	switch q.codec {
	case storage.CodecFP16:
		vec.DequantF16(dst, q.f16[r*q.cols:(r+1)*q.cols])
	case storage.CodecInt8:
		vec.DequantI8(dst, q.i8[r*q.cols:(r+1)*q.cols], q.scales[r])
	}
}

// quantViews builds a quantRows over the payload blocks of a parsed v2
// layout. b is the whole file image; the views alias it, so the caller
// keeps it alive for the life of the shard.
func quantViews(b []byte, l storage.Layout) (*quantRows, error) {
	so, sn := l.Scales()
	eo, en := l.Embs()
	q := &quantRows{codec: l.Codec, rows: l.Count, cols: l.Dim, nbytes: sn + en}
	var err error
	switch l.Codec {
	case storage.CodecFP16:
		q.f16, err = u16View(b[eo : eo+en])
	case storage.CodecInt8:
		q.i8 = i8View(b[eo : eo+en])
		q.scales, err = f32View(b[so : so+sn])
	default:
		err = fmt.Errorf("serve: no quantized view for codec %v", l.Codec)
	}
	if err != nil {
		return nil, err
	}
	return q, nil
}

// The reinterpret views below work over mappings and heap buffers alike,
// and misalignment is reported rather than risked. Mappings are page-aligned,
// Go heap allocations at least word-aligned, and every block offset
// storage.Layout reports is 4-aligned, so the checks never fire on an image
// that starts where its buffer does.

func f32View(b []byte) ([]float32, error) {
	if len(b) == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%4 != 0 {
		return nil, fmt.Errorf("serve: block misaligned for float32 view")
	}
	return unsafe.Slice((*float32)(p), len(b)/4), nil
}

func u16View(b []byte) ([]uint16, error) {
	if len(b) == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%2 != 0 {
		return nil, fmt.Errorf("serve: block misaligned for uint16 view")
	}
	return unsafe.Slice((*uint16)(p), len(b)/2), nil
}

func i8View(b []byte) []int8 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*int8)(unsafe.Pointer(&b[0])), len(b))
}
