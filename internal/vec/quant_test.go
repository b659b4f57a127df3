package vec

import (
	"math"
	"math/rand"
	"testing"
)

// refF16Bits is an independent reference for float32→binary16 rounding:
// it picks whichever representable half (with the codec's clamp-to-finite
// convention) is nearest to x, breaking ties toward the even mantissa, by
// scanning the two candidates around the truncated encoding.
func refF16Bits(x float32) uint16 {
	if math.IsNaN(float64(x)) {
		return 0x7e00
	}
	sign := uint16(0)
	if math.Signbit(float64(x)) {
		sign = 0x8000
		x = -x
	}
	if x > MaxF16 {
		return sign | 0x7bff
	}
	// Binary search over the ordered positive half values [0x0000, 0x7bff]:
	// monotone in bits, so find the largest h with F16Value(h) <= x, then
	// round between h and h+1.
	lo, hi := uint16(0), uint16(0x7bff)
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if F16Value(mid) <= x {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo == 0x7bff {
		return sign | lo
	}
	a, b := F16Value(lo), F16Value(lo+1)
	da, db := float64(x)-float64(a), float64(b)-float64(x)
	switch {
	case da < db:
		return sign | lo
	case db < da:
		return sign | (lo + 1)
	case lo&1 == 0: // tie: even mantissa wins
		return sign | lo
	default:
		return sign | (lo + 1)
	}
}

func TestF16BitsMatchesReference(t *testing.T) {
	cases := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 2, 3.14159, -2.71828,
		65504, -65504, 65505, 70000, 1e-7, -1e-7, 5.96e-8, 6.1e-5,
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(1),          // smallest float32 subnormal
		math.Float32frombits(0x00400000), // float32 subnormal
		6.103515625e-05,                  // smallest half normal
		5.960464477539063e-08,            // smallest half subnormal
		2.980232238769531e-08,            // exactly half the smallest subnormal: RNE tie to 0
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		switch i % 4 {
		case 0:
			cases = append(cases, float32(rng.NormFloat64()))
		case 1:
			cases = append(cases, float32(rng.NormFloat64()*1e4))
		case 2:
			cases = append(cases, float32(rng.NormFloat64()*1e-5)) // subnormal half territory
		default:
			cases = append(cases, math.Float32frombits(rng.Uint32()&0x7fffffff|rng.Uint32()&0x80000000))
		}
	}
	for _, x := range cases {
		got, want := F16Bits(x), refF16Bits(x)
		if math.IsNaN(float64(x)) {
			if F16Value(got)+1 == F16Value(got)+1 { // not NaN
				t.Fatalf("F16Bits(NaN) = %#04x, decodes non-NaN", got)
			}
			continue
		}
		if got != want {
			t.Fatalf("F16Bits(%g) = %#04x (%g), want %#04x (%g)",
				x, got, F16Value(got), want, F16Value(want))
		}
	}
}

func TestF16RoundTripExactForHalfValues(t *testing.T) {
	// Every finite half value must encode back to itself exactly.
	for h := 0; h < 0x10000; h++ {
		bits := uint16(h)
		if bits&0x7c00 == 0x7c00 { // Inf/NaN patterns excluded
			continue
		}
		x := F16Value(bits)
		back := F16Bits(x)
		if back != bits {
			t.Fatalf("half %#04x -> %g -> %#04x, not identity", bits, x, back)
		}
	}
}

func TestF16NeverProducesInf(t *testing.T) {
	inputs := []float32{
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, -math.MaxFloat32, 65505, 65519.999, 1e20, -1e20,
	}
	for _, x := range inputs {
		h := F16Bits(x)
		v := F16Value(h)
		if math.IsInf(float64(v), 0) {
			t.Fatalf("F16Bits(%g) = %#04x decodes to Inf", x, h)
		}
		if a := float32(math.Abs(float64(v))); a != MaxF16 {
			t.Fatalf("F16Bits(%g) should clamp to ±%d, got %g", x, MaxF16, v)
		}
		if math.Signbit(float64(x)) != math.Signbit(float64(v)) {
			t.Fatalf("F16Bits(%g) lost the sign: %g", x, v)
		}
	}
}

func TestF16RelativeError(t *testing.T) {
	// For normal-range values the round-trip relative error is bounded by
	// half the binary16 ulp: 2^-11.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50000; i++ {
		x := float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(8)-3)))
		if a := math.Abs(float64(x)); a < 6.104e-5 || a > MaxF16 {
			continue
		}
		y := F16Value(F16Bits(x))
		rel := math.Abs(float64(y)-float64(x)) / math.Abs(float64(x))
		if rel > math.Pow(2, -11) {
			t.Fatalf("F16 round-trip rel error %g for %g (got %g)", rel, x, y)
		}
	}
}

func TestI8RoundTripErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		dim := 1 + rng.Intn(200)
		row := make([]float32, dim)
		scaleMag := math.Pow(10, float64(rng.Intn(10)-5))
		for i := range row {
			row[i] = float32(rng.NormFloat64() * scaleMag)
		}
		if trial%7 == 0 { // sprinkle float32 denormals
			row[rng.Intn(dim)] = math.Float32frombits(uint32(rng.Intn(0x7fffff) + 1))
		}
		scale := I8RowScale(row)
		q := make([]int8, dim)
		deq := make([]float32, dim)
		QuantI8(q, row, scale)
		DequantI8(deq, q, scale)
		// |x - deq| <= scale/2 per element: rounding error of round(x/scale)
		// is <= 1/2, and no clamping occurs because |x|/scale <= 127.
		bound := float64(scale) / 2 * (1 + 1e-6) // float32 arithmetic slack
		for i := range row {
			if err := math.Abs(float64(row[i]) - float64(deq[i])); err > bound {
				t.Fatalf("trial %d dim %d elem %d: |%g - %g| = %g > scale/2 = %g",
					trial, dim, i, row[i], deq[i], err, bound)
			}
		}
	}
}

func TestI8AllZeroRow(t *testing.T) {
	row := make([]float32, 16)
	if s := I8RowScale(row); s != 0 {
		t.Fatalf("all-zero row scale = %g, want 0", s)
	}
	q := make([]int8, 16)
	q[3] = 42 // stale garbage must be overwritten
	deq := make([]float32, 16)
	QuantI8(q, row, 0)
	DequantI8(deq, q, 0)
	for i := range deq {
		if q[i] != 0 || deq[i] != 0 {
			t.Fatalf("zero-scale row not exact zeros: q[%d]=%d deq[%d]=%g", i, q[i], i, deq[i])
		}
	}
	if s := I8RowScale(nil); s != 0 {
		t.Fatalf("empty row scale = %g, want 0", s)
	}
}

func TestI8SymmetricRange(t *testing.T) {
	// The extreme negative value quantizes to -127, never -128.
	row := []float32{-1, 1, -0.999999, 0.5}
	scale := I8RowScale(row)
	q := make([]int8, len(row))
	QuantI8(q, row, scale)
	for i, v := range q {
		if v < -127 || v > 127 {
			t.Fatalf("q[%d] = %d outside [-127, 127]", i, v)
		}
	}
	if q[0] != -127 || q[1] != 127 {
		t.Fatalf("extremes should hit ±127, got %d and %d", q[0], q[1])
	}
}

func TestI8NonFiniteRow(t *testing.T) {
	// An Inf element saturates the scale rather than making it Inf; the
	// codec stays defined (garbage rows were a bug upstream, but encode
	// must not emit Inf scales that poison the whole row on decode).
	row := []float32{float32(math.Inf(1)), 1, -2}
	scale := I8RowScale(row)
	if math.IsInf(float64(scale), 0) || math.IsNaN(float64(scale)) {
		t.Fatalf("scale for Inf row is non-finite: %g", scale)
	}
	q := make([]int8, len(row))
	deq := make([]float32, len(row))
	QuantI8(q, row, scale)
	DequantI8(deq, q, scale)
	for i, v := range deq {
		if math.IsInf(float64(v), 0) || math.IsNaN(float64(v)) {
			t.Fatalf("deq[%d] non-finite: %g", i, v)
		}
	}
}

func TestQuantBatchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(300)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.NormFloat64())
		}
		scale := I8RowScale(src)
		q := make([]int8, n)
		QuantI8(q, src, scale)
		out := make([]float32, n)
		DequantI8(out, q, scale)
		for i := range src {
			if out[i] != float32(q[i])*scale {
				t.Fatalf("batch int8 kernel diverges from scalar at %d", i)
			}
		}
	}
}
