package rng

import (
	"math"
	"math/bits"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams from different seeds matched %d/64 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children should produce different streams")
	}
}

// SplitInto derives the generator Split does and advances the parent the
// same way.
func TestSplitIntoIsSplit(t *testing.T) {
	a, b := New(9), New(9)
	var into RNG
	for round := 0; round < 3; round++ {
		split := a.Split()
		b.SplitInto(&into)
		for i := 0; i < 8; i++ {
			if x, y := split.Uint64(), into.Uint64(); x != y {
				t.Fatalf("round %d draw %d: Split %x, SplitInto %x", round, i, x, y)
			}
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("the parents diverged")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from %v", i, c, want)
		}
	}
}

// mul64 is the portable 128-bit product Intn computed before it used
// math/bits: the reference that keeps Intn's values what they were.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

func TestIntnMatchesPortableProduct(t *testing.T) {
	check := func(r *RNG, n int) {
		t.Helper()
		next := *r
		want, _ := mul64(next.Uint64(), uint64(n))
		if got := r.Intn(n); got != int(want) {
			t.Fatalf("Intn(%d) = %d, portable product gives %d", n, got, want)
		}
	}
	edges := []uint64{1, 2, 3, 1<<31 - 1, 1 << 32, math.MaxInt64}
	r, pick := New(11), New(12)
	for i := 0; i < 100000; i++ {
		n := edges[i/2%len(edges)]
		if i%2 == 1 {
			n = max(1, pick.Uint64()>>uint(1+pick.Intn(63))&math.MaxInt)
		}
		if n <= math.MaxInt { // the wide edge cases exist where int is 64 bits
			check(r, int(n))
		}
	}
	// The extreme draws: v = 0 and v = 2⁶⁴−1 against every edge case.
	for _, v := range []uint64{0, math.MaxUint64} {
		for _, n := range edges {
			hi, lo := mul64(v, n)
			if bhi, blo := bits.Mul64(v, n); bhi != hi || blo != lo {
				t.Fatalf("Mul64(%d, %d) = (%d, %d), portable (%d, %d)", v, n, bhi, blo, hi, lo)
			}
		}
	}
}

func TestIntnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat32Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float32()
		if f < 0 || f >= 1 {
			t.Fatalf("Float32 = %v out of [0,1)", f)
		}
	}
}

func TestNormFloat32Moments(t *testing.T) {
	r := New(13)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := float64(r.NormFloat32())
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(17)
	xs := make([]int, 100)
	r.Perm(xs)
	seen := make([]bool, 100)
	for _, x := range xs {
		if x < 0 || x >= 100 || seen[x] {
			t.Fatalf("not a permutation: %v", xs)
		}
		seen[x] = true
	}
}

func TestAliasMatchesWeights(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := NewAlias(weights)
	r := New(19)
	const draws = 200000
	counts := make([]int, len(weights))
	for i := 0; i < draws; i++ {
		counts[a.Sample(r)]++
	}
	total := 10.0
	for i, w := range weights {
		got := float64(counts[i]) / draws
		want := w / total
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("alias outcome %d: freq %v, want %v", i, got, want)
		}
	}
}

func TestAliasZeroWeightNeverSampled(t *testing.T) {
	a := NewAlias([]float64{0, 1, 0, 1})
	r := New(23)
	for i := 0; i < 10000; i++ {
		s := a.Sample(r)
		if s == 0 || s == 2 {
			t.Fatalf("sampled zero-weight outcome %d", s)
		}
	}
}

func TestAliasAllZeroIsUniform(t *testing.T) {
	a := NewAlias([]float64{0, 0, 0})
	r := New(29)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[a.Sample(r)]++
	}
	for i, c := range counts {
		if c < 8000 {
			t.Fatalf("all-zero alias not uniform: bucket %d = %d", i, c)
		}
	}
}

func TestAliasSingleOutcome(t *testing.T) {
	a := NewAlias([]float64{5})
	r := New(31)
	for i := 0; i < 100; i++ {
		if a.Sample(r) != 0 {
			t.Fatal("single-outcome alias must always return 0")
		}
	}
}

func TestAliasNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAlias([]float64{1, -1})
}

func TestZipfRangeAndSkew(t *testing.T) {
	z := NewZipf(1000, 1.1)
	r := New(37)
	const draws = 100000
	counts := make([]int, 1000)
	for i := 0; i < draws; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Heavy tail: rank 0 must dominate rank 99 by roughly (100)^1.1.
	if counts[0] < counts[99]*10 {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[99]=%d", counts[0], counts[99])
	}
	// And the head should not hold everything: the tail half must be nonempty.
	var tail int
	for _, c := range counts[500:] {
		tail += c
	}
	if tail == 0 {
		t.Fatal("Zipf tail never sampled")
	}
}

func TestZipfExponentOne(t *testing.T) {
	z := NewZipf(100, 1.0)
	r := New(41)
	for i := 0; i < 10000; i++ {
		v := z.Sample(r)
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf(s=1) sample %d out of range", v)
		}
	}
}

func BenchmarkAliasSample(b *testing.B) {
	weights := make([]float64, 100000)
	for i := range weights {
		weights[i] = 1 / float64(i+1)
	}
	a := NewAlias(weights)
	r := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Sample(r)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}
