// Quantization kernels for the compressed shard codecs (internal/storage).
// Two encodings are supported:
//
//   - fp16: IEEE 754 binary16 with round-to-nearest-even. Encoding never
//     produces an infinity — float32 values past the half range (including
//     ±Inf) clamp to ±MaxF16, so a decoded embedding table is guaranteed
//     ±Inf-free whenever the encoder wrote it. NaN survives as NaN (a NaN
//     embedding is already a training bug upstream; hiding it here would
//     only move the failure).
//   - int8 with one float32 scale per row: q = round(x/scale) clamped to
//     [-127, 127] with scale = maxabs(row)/127, so dequantization error is
//     bounded by scale/2 = maxabs/254 per element. An all-zero row encodes
//     with scale 0 and decodes to exact zeros.
package vec

import "math"

// MaxF16 is the largest finite binary16 value (65504); float32 inputs with
// larger magnitude (including ±Inf) clamp to ±MaxF16 when encoding.
const MaxF16 = 65504

// F16Bits converts a float32 to IEEE binary16 bits with round-to-nearest-
// even. Overflow (and ±Inf) clamps to the maximum finite half instead of
// producing an infinity; NaN maps to a quiet half NaN.
//
//pbg:hotpath
func F16Bits(x float32) uint16 {
	u := math.Float32bits(x)
	sign := uint16(u>>16) & 0x8000
	u &^= 0x80000000
	if u >= 0x7f800000 { // Inf or NaN
		if u > 0x7f800000 {
			return sign | 0x7e00 // quiet NaN
		}
		return sign | 0x7bff // ±Inf clamps to ±MaxF16
	}
	e := int(u>>23) - 127 + 15 // biased half exponent
	m := u & 0x007fffff
	if e >= 31 {
		// |x| ≥ 2^16 > MaxF16: overflow before rounding even starts.
		return sign | 0x7bff
	}
	if e <= 0 {
		// Half subnormal (or underflow to zero). Make the implicit bit
		// explicit and shift the 24-bit significand down to 10-e bits,
		// rounding to nearest even on the dropped remainder.
		if e < -10 {
			return sign
		}
		m |= 0x00800000
		shift := uint(14 - e) // in [14, 24]
		q := m >> shift
		rem := m & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && q&1 == 1) {
			q++ // may round up into the smallest normal, which is correct
		}
		return sign | uint16(q)
	}
	// Normal range: drop 13 mantissa bits with round-to-nearest-even. A
	// mantissa carry that overflows the exponent into the Inf pattern is
	// the rounding-overflow case (values just under 2^16) and clamps too.
	q := m >> 13
	rem := m & 0x1fff
	h := uint16(e)<<10 | uint16(q)
	if rem > 0x1000 || (rem == 0x1000 && q&1 == 1) {
		h++
		if h >= 0x7c00 {
			h = 0x7bff
		}
	}
	return sign | h
}

// F16Value converts IEEE binary16 bits to float32. The decode is exact:
// every half value (normals, subnormals, ±Inf, NaN) is representable in
// float32. Well-formed codec data never contains Inf (F16Bits clamps), but
// hostile bytes decode without widening surprises all the same.
//
//pbg:hotpath
func F16Value(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	e := uint32(h>>10) & 0x1f
	m := uint32(h & 0x3ff)
	switch {
	case e == 0:
		if m == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal: normalise the significand into float32's implicit-bit
		// form, tracking the exponent adjustment.
		exp := uint32(113)
		for m&0x400 == 0 {
			m <<= 1
			exp--
		}
		m &= 0x3ff
		return math.Float32frombits(sign | exp<<23 | m<<13)
	case e == 31:
		if m != 0 {
			return float32(math.NaN())
		}
		return math.Float32frombits(sign | 0x7f800000) // ±Inf (hostile input)
	default:
		return math.Float32frombits(sign | (e+112)<<23 | m<<13)
	}
}

// I8RowScale returns the per-row int8 quantization scale maxabs(row)/127.
// An all-zero row (or an empty one) returns 0, which QuantI8/DequantI8
// treat as "the row is exactly zero". Non-finite elements saturate the
// scale to +Inf-free MaxFloat32/127 so quantization stays defined.
//
//pbg:hotpath
func I8RowScale(row []float32) float32 {
	var maxAbs float32
	for _, x := range row {
		a := float32(math.Abs(float64(x)))
		if a > maxAbs {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return 0
	}
	if math.IsInf(float64(maxAbs), 0) {
		// Saturate below MaxFloat32 so 127·scale stays finite on dequant.
		maxAbs = math.MaxFloat32 / 2
	}
	return maxAbs / 127
}

// QuantI8 encodes src as round-to-nearest int8 under scale, clamped to
// [-127, 127] (the symmetric range; -128 is never produced). A zero scale
// writes zeros. Lengths must match.
//
//pbg:hotpath
func QuantI8(dst []int8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic("vec: QuantI8 length mismatch")
	}
	if scale == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	inv := 1 / float64(scale)
	for i, x := range src {
		q := math.Round(float64(x) * inv)
		if q > 127 {
			q = 127
		} else if q < -127 {
			q = -127
		}
		dst[i] = int8(q)
	}
}

// DequantI8 decodes src into dst as float32(q)·scale. Lengths must match.
// It is the int8 shard decoder's row kernel.
//
//pbg:hotpath
func DequantI8(dst []float32, src []int8, scale float32) {
	if len(dst) != len(src) {
		panic("vec: DequantI8 length mismatch")
	}
	for i, q := range src {
		dst[i] = float32(q) * scale
	}
}
