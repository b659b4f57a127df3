// Package rng provides the fast, seedable random number generation the
// training and sampling loops depend on: a splittable xoshiro256** generator
// (one per HOGWILD worker, no locking), Walker alias tables for O(1)
// sampling from the data-prevalence distribution (§3.1 of the paper), and a
// Zipf sampler used by the synthetic dataset generators.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo random generator. It is not safe for
// concurrent use; give each worker its own instance via Split.
type RNG struct {
	s [4]uint64
}

// splitmix64 is used for seeding, as recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *RNG {
	r := seeded(seed)
	return &r
}

func seeded(seed uint64) RNG {
	var r RNG
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// Avoid the all-zero state (probability ~0 but cheap to rule out).
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives an independent generator from r, suitable for handing to a
// worker goroutine. The parent stream advances.
func (r *RNG) Split() *RNG {
	return New(r.splitSeed())
}

// SplitInto is Split writing the derived generator into dst, for callers
// that keep one generator per worker as reusable scratch.
func (r *RNG) SplitInto(dst *RNG) {
	*dst = seeded(r.splitSeed())
}

func (r *RNG) splitSeed() uint64 { return r.Uint64() ^ 0xA5A5A5A5A5A5A5A5 }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method.
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat32 returns a standard normal variate (Box–Muller; the second
// variate is discarded to keep the generator allocation-free and stateless).
func (r *RNG) NormFloat32() float32 {
	// Guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	v := r.Float64()
	return float32(math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v))
}

// Perm fills out with a random permutation of [0, len(out)).
func (r *RNG) Perm(out []int) {
	for i := range out {
		out[i] = i
	}
	r.ShuffleInts(out)
}

// ShuffleInts permutes xs in place (Fisher–Yates).
func (r *RNG) ShuffleInts(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// Shuffle permutes n elements using the given swap callback.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Alias is a Walker alias table for O(1) sampling from a discrete
// distribution. PBG uses this shape of sampler for data-prevalence negative
// sampling: the table is built once from training-set degree counts and then
// shared read-only across workers.
type Alias struct {
	prob  []float32
	alias []int32
}

// NewAlias builds an alias table from non-negative weights. Weights that sum
// to zero yield a uniform table. The input slice is not retained.
func NewAlias(weights []float64) *Alias {
	n := len(weights)
	if n == 0 {
		panic("rng: NewAlias with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: NewAlias with negative weight")
		}
		total += w
	}
	a := &Alias{prob: make([]float32, n), alias: make([]int32, n)}
	scaled := make([]float64, n)
	if total == 0 {
		for i := range a.prob {
			a.prob[i] = 1
			a.alias[i] = int32(i)
		}
		return a
	}
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
	}
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, s := range scaled {
		if s < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[l] = float32(scaled[l])
		a.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, g := range large {
		a.prob[g] = 1
		a.alias[g] = int32(g)
	}
	for _, l := range small {
		a.prob[l] = 1
		a.alias[l] = int32(l)
	}
	return a
}

// Sample draws one index according to the table's distribution.
func (a *Alias) Sample(r *RNG) int {
	i := r.Intn(len(a.prob))
	if r.Float32() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Zipf samples integers in [0, n) with P(k) ∝ 1/(k+1)^s using inversion by
// rejection (Devroye). It reproduces the heavy-tailed node popularity of
// real web graphs that the paper's datasets exhibit.
type Zipf struct {
	n              int
	s              float64
	hx0            float64
	hxm            float64
	hIntegralConst float64
}

// NewZipf creates a Zipf sampler over [0, n) with exponent s > 0, s != 1 is
// handled as well as s == 1.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("rng: NewZipf requires n > 0 and s > 0")
	}
	z := &Zipf{n: n, s: s}
	z.hx0 = z.h(0.5) - 1
	z.hxm = z.h(float64(n) + 0.5)
	z.hIntegralConst = z.hx0 - z.hxm
	return z
}

// h is the integral of x^-s (antiderivative up to constants).
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return -math.Log(x)
	}
	return -math.Pow(x, 1-z.s) / (1 - z.s)
}

func (z *Zipf) hInv(x float64) float64 {
	if z.s == 1 {
		return math.Exp(-x)
	}
	return math.Pow(-(1-z.s)*x, 1/(1-z.s))
}

// Sample draws one Zipf-distributed value in [0, n).
func (z *Zipf) Sample(r *RNG) int {
	// Rejection sampling against the dominating curve; expected iterations
	// are close to 1 for the exponents (0.5–2) the generators use.
	for {
		u := z.hxm + r.Float64()*z.hIntegralConst
		x := z.hInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		if k-x <= 0.5 || z.h(k+0.5)-z.h(k-0.5) >= math.Pow(k, -z.s)*0.999999 {
			return int(k) - 1
		}
	}
}
