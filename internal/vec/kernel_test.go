package vec

import (
	"fmt"
	"math"
	"testing"

	"pbg/internal/rng"
)

// The parity suite of the numerical contract in kernel.go: both kernel paths
// against a float64 reference (i), and the assembly path against itself for
// position-independence (ii), over shapes that put every tile edge, every
// d mod 8 and unaligned operands on the path.

// kernels is one implementation of the dispatched entry points.
type kernels struct {
	name          string
	dot           func(a, b []float32) float32
	axpy          func(alpha float32, x, y []float32)
	mulABtRows    func(c, a, b Matrix, idx []int32)
	addOuterAtB   func(a, g, b Matrix)
	addRowsSparse func(dst Matrix, g *SparseRows, src Matrix)
	hingeRow      func(idx []int32, scores []float32, ids []int32, t float32, id int32) (int, float64, int)
	selectGE      func(idx []int32, x []float32, t float32) int
}

var (
	genericKernels = kernels{
		"generic", dotGeneric, axpyGeneric,
		func(c, a, b Matrix, idx []int32) { checkMulABt(c, a, b, idx); mulABtGeneric(c, a, b, idx) },
		func(a, g, b Matrix) { addOuterDense(a, g, b, false) },
		func(dst Matrix, g *SparseRows, src Matrix) { addRowsSparse(dst, g, src, false) },
		hingeRowGeneric, selectGEGeneric,
	}
	activeKernels = kernels{Kernel(), Dot, Axpy, MulABtRows, AddOuterAtB, AddRowsSparse, hingeRow, SelectGE}
)

// bothPaths is the active path and, when that is the assembly, the portable
// one beside it.
func bothPaths() []kernels {
	if Kernel() == "generic" {
		return []kernels{genericKernels}
	}
	return []kernels{activeKernels, genericKernels}
}

// offMatrix is a random rows×cols matrix whose data starts off floats into
// its allocation, so rows are misaligned for every vector width.
func offMatrix(r *rng.RNG, rows, cols, off int) Matrix {
	buf := make([]float32, off+rows*cols)
	data := buf[off:]
	for i := range data {
		data[i] = r.NormFloat32()
	}
	return MatrixFrom(data, rows, cols)
}

func cloneMatrix(m Matrix) Matrix {
	return MatrixFrom(append([]float32(nil), m.Data...), m.Rows, m.Cols)
}

// sparsify zeroes each coefficient of g with probability 1−density/255, then
// makes row 0 all zero and leaves row 1 a single coefficient where those rows
// exist, so the sparse kernel meets empty, single and mixed index lists (and
// full ones at density 255).
func sparsify(r *rng.RNG, g Matrix, density uint8) {
	for i := range g.Data {
		if r.Intn(255) >= int(density) {
			g.Data[i] = 0
		}
	}
	if g.Rows > 2 && g.Cols > 0 {
		Zero(g.Row(0))
		Zero(g.Row(1))
		g.Row(1)[g.Cols/2] = 1.5
	}
}

// tableDensity is the share of G (out of 255) the parity table keeps.
const tableDensity = 170

// sparseOf compresses the non-zeros of a dense g into offset buffers, plus a
// few explicit ±0 weights the kernel must skip.
func sparseOf(g Matrix, off int) *SparseRows {
	s := &SparseRows{Start: make([]int32, 1, g.Rows+1), Idx: make([]int32, off)[off:], W: make([]float32, off)[off:]}
	for i := 0; i < g.Rows; i++ {
		for j, v := range g.Row(i) {
			if v != 0 || (i+j)%11 == 0 {
				s.Append(int32(j), v)
			}
		}
		s.EndRow()
	}
	return s
}

func transposeOf(s *SparseRows, cols int) *SparseRows {
	t := new(SparseRows)
	s.TransposeInto(t, cols)
	return t
}

// gamma is γ_n = n·u/(1−n·u) at float32's unit roundoff u = 2⁻²⁴.
func gamma(n int) float64 {
	nu := float64(n) / (1 << 24)
	return nu / (1 - nu)
}

// withinBound checks contract (i) for one output: got against the exact sum
// of the given terms.
func withinBound(got float32, nTerms int, exact, absSum float64) bool {
	return math.Abs(float64(got)-exact) <= gamma(nTerms)*absSum
}

// checkBound runs every kernel of ks on one shape and checks contract (i).
func checkBound(ks kernels, n, m, d, off int, density uint8, seed uint64) error {
	r := rng.New(seed)
	a, b := offMatrix(r, n, d, off), offMatrix(r, m, d, off)
	g := offMatrix(r, n, m, off)
	sparsify(r, g, density)

	c := offMatrix(r, n, m, off)
	ks.mulABtRows(c, a, b, nil)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			var exact, abs float64
			for k := 0; k < d; k++ {
				p := float64(a.Row(i)[k]) * float64(b.Row(j)[k])
				exact += p
				abs += math.Abs(p)
			}
			if got := c.Row(i)[j]; !withinBound(got, d, exact, abs) {
				return fmt.Errorf("MulABt[%d][%d] = %v, exact %v, bound %v", i, j, got, exact, gamma(d)*abs)
			}
			if got := ks.dot(a.Row(i), b.Row(j)); !withinBound(got, d, exact, abs) {
				return fmt.Errorf("Dot(a%d, b%d) = %v, exact %v, bound %v", i, j, got, exact, gamma(d)*abs)
			}
		}
	}

	// outer checks dst += W·src for one of the two accumulating GEMMs, with
	// w(p, q) the coefficient of source row q in destination row p.
	outer := func(op string, dst0, dst, src Matrix, w func(p, q int) float32) error {
		for p := 0; p < dst.Rows; p++ {
			for k := 0; k < d; k++ {
				exact := float64(dst0.Row(p)[k])
				abs := math.Abs(exact)
				for q := 0; q < src.Rows; q++ {
					t := float64(w(p, q)) * float64(src.Row(q)[k])
					exact += t
					abs += math.Abs(t)
				}
				if got := dst.Row(p)[k]; !withinBound(got, src.Rows+1, exact, abs) {
					return fmt.Errorf("%s[%d][%d] = %v, exact %v, bound %v", op, p, k, got, exact, gamma(src.Rows+1)*abs)
				}
			}
		}
		return nil
	}
	accA0 := offMatrix(r, n, d, off)
	accA := cloneMatrix(accA0)
	ks.addOuterAtB(accA, g, b)
	if err := outer("AddOuterAtB", accA0, accA, b, func(p, q int) float32 { return g.Row(p)[q] }); err != nil {
		return err
	}
	sg := sparseOf(g, off)
	accA = cloneMatrix(accA0)
	ks.addRowsSparse(accA, sg, b)
	if err := outer("AddRowsSparse(G)", accA0, accA, b, func(p, q int) float32 { return g.Row(p)[q] }); err != nil {
		return err
	}
	accB0 := offMatrix(r, m, d, off)
	accB := cloneMatrix(accB0)
	ks.addRowsSparse(accB, transposeOf(sg, m), a)
	if err := outer("AddRowsSparse(Gᵀ)", accB0, accB, a, func(p, q int) float32 { return g.Row(q)[p] }); err != nil {
		return err
	}

	if n > 0 && m > 0 {
		y0 := offMatrix(r, 1, d, off)
		y := cloneMatrix(y0)
		alpha := g.Data[len(g.Data)-1]
		ks.axpy(alpha, a.Row(0), y.Data)
		for k := 0; k < d; k++ {
			t := float64(alpha) * float64(a.Row(0)[k])
			exact := float64(y0.Data[k]) + t
			if !withinBound(y.Data[k], 2, exact, math.Abs(float64(y0.Data[k]))+math.Abs(t)) {
				return fmt.Errorf("Axpy[%d] = %v, exact %v", k, y.Data[k], exact)
			}
		}
	}
	return nil
}

func sameBits(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }

// checkPositionIndependent checks contract (ii) on the active path: the
// GEMMs against the Dot and Axpy calls they abbreviate, bit for bit.
func checkPositionIndependent(n, m, d, off int, density uint8, seed uint64) error {
	r := rng.New(seed)
	a, b := offMatrix(r, n, d, off), offMatrix(r, m, d, off)
	g := offMatrix(r, n, m, off)
	sparsify(r, g, density)

	c := offMatrix(r, n, m, off)
	MulABt(c, a, b)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			if want := Dot(a.Row(i), b.Row(j)); !sameBits(c.Row(i)[j], want) {
				return fmt.Errorf("MulABt[%d][%d] = %v, Dot of the same rows %v", i, j, c.Row(i)[j], want)
			}
		}
	}

	// Both accumulating products — G·B through the dense entry point and
	// through AddRowsSparse, Gᵀ·A through AddRowsSparse over the transpose —
	// against the Axpy chain.
	sg := sparseOf(g, off)
	accA0 := offMatrix(r, n, d, off)
	want := cloneMatrix(accA0)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			Axpy(g.Row(i)[j], b.Row(j), want.Row(i))
		}
	}
	for _, run := range []struct {
		op string
		f  func(dst Matrix)
	}{
		{"AddOuterAtB", func(dst Matrix) { AddOuterAtB(dst, g, b) }},
		{"AddRowsSparse(G)", func(dst Matrix) { AddRowsSparse(dst, sg, b) }},
	} {
		got := cloneMatrix(accA0)
		run.f(got)
		if i := firstDiff(got.Data, want.Data); i >= 0 {
			return fmt.Errorf("%s element %d = %v, Axpy chain %v", run.op, i, got.Data[i], want.Data[i])
		}
	}

	accB0 := offMatrix(r, m, d, off)
	want = cloneMatrix(accB0)
	for j := 0; j < m; j++ {
		for i := 0; i < n; i++ {
			Axpy(g.Row(i)[j], a.Row(i), want.Row(j))
		}
	}
	got := cloneMatrix(accB0)
	AddRowsSparse(got, transposeOf(sg, m), a)
	if i := firstDiff(got.Data, want.Data); i >= 0 {
		return fmt.Errorf("AddRowsSparse(Gᵀ) element %d = %v, Axpy chain %v", i, got.Data[i], want.Data[i])
	}
	return nil
}

// firstDiff returns the first index at which x and y differ bitwise, or −1.
func firstDiff(x, y []float32) int {
	for i := range x {
		if !sameBits(x[i], y[i]) {
			return i
		}
	}
	return -1
}

// checkRows holds MulABtRows to its definition on every path: against rows
// of b picked by a list with repeats — of odd length whenever m is even, so
// the one-column edge tile reads through the list too — it is bitwise the same
// path's MulABt over a gathered copy of those rows, and on the assembly path
// bitwise Dot of the rows where they lie.
func checkRows(n, m, d, off int, seed uint64) error {
	r := rng.New(seed)
	a, b := offMatrix(r, n, d, off), offMatrix(r, m, d, off)
	var idx []int32
	if m > 0 {
		idx = make([]int32, off+m+1)[off:]
		for j := range idx {
			idx[j] = int32(r.Intn(m))
		}
		idx[len(idx)/2] = idx[0] // a repeated row, whatever the draw
	}
	gathered := offMatrix(r, len(idx), d, off)
	for j, row := range idx {
		copy(gathered.Row(j), b.Row(int(row)))
	}
	for _, ks := range bothPaths() {
		got, want := offMatrix(r, n, len(idx), off), offMatrix(r, n, len(idx), off)
		ks.mulABtRows(got, a, b, idx)
		ks.mulABtRows(want, a, gathered, nil)
		if i := firstDiff(got.Data, want.Data); i >= 0 {
			return fmt.Errorf("%s: MulABtRows element %d = %v, MulABt over the gathered rows %v", ks.name, i, got.Data[i], want.Data[i])
		}
		if ks.name == "generic" {
			continue
		}
		for i := 0; i < n; i++ {
			for j, row := range idx {
				if want := Dot(a.Row(i), b.Row(int(row))); !sameBits(got.Row(i)[j], want) {
					return fmt.Errorf("MulABtRows[%d][%d] = %v, Dot with row %d %v", i, j, got.Row(i)[j], row, want)
				}
			}
		}
	}
	return nil
}

// checkSelectGE holds both paths' threshold filter to its definition — the
// ascending positions not strictly below t — over rows salted with NaN, ±Inf
// and exact ties with the threshold, and with NaN and ±Inf as the threshold.
func checkSelectGE(n, off int, seed uint64) error {
	r := rng.New(seed)
	x := offMatrix(r, 1, n, off).Data
	inf := float32(math.Inf(1))
	thresholds := []float32{r.NormFloat32(), float32(math.NaN()), inf, -inf, 0}
	specials := append(thresholds, float32(math.Copysign(0, -1)))
	for j := 2; j < n; j += 5 {
		x[j] = specials[(j/5)%len(specials)]
	}
	for _, t := range thresholds {
		var want []int32
		for j, v := range x {
			if !(v < t) {
				want = append(want, int32(j))
			}
		}
		for _, ks := range bothPaths() {
			idx := make([]int32, off+n)[off:]
			if k := ks.selectGE(idx, x, t); k != len(want) {
				return fmt.Errorf("%s: threshold %v selects %d of %d, want %d", ks.name, t, k, n, len(want))
			}
			for q := range want {
				if idx[q] != want[q] {
					return fmt.Errorf("%s: threshold %v selection %d is position %d, want %d", ks.name, t, q, idx[q], want[q])
				}
			}
		}
	}
	return nil
}

var (
	parityRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 50, 100}
	parityDims = []int{0, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100, 128, 130}
)

// eachParityShape visits the table: every (n, m, d), with a seed and an
// allocation offset in 1..7 that vary with the shape.
func eachParityShape(f func(n, m, d, off int, seed uint64)) {
	shape := 0
	for _, n := range parityRows {
		for _, m := range parityRows {
			for _, d := range parityDims {
				shape++
				f(n, m, d, 1+shape%7, uint64(shape))
			}
		}
	}
}

func TestKernelErrorBound(t *testing.T) {
	for _, ks := range bothPaths() {
		t.Run(ks.name, func(t *testing.T) {
			eachParityShape(func(n, m, d, off int, seed uint64) {
				if err := checkBound(ks, n, m, d, off, tableDensity, seed); err != nil {
					t.Fatalf("n=%d m=%d d=%d offset %d: %v", n, m, d, off, err)
				}
			})
		})
	}
}

func TestKernelPositionIndependent(t *testing.T) {
	if Kernel() == "generic" {
		t.Skip("contract (ii) is the assembly path's; this machine runs the generic kernels")
	}
	eachParityShape(func(n, m, d, off int, seed uint64) {
		if err := checkPositionIndependent(n, m, d, off, tableDensity, seed); err != nil {
			t.Fatalf("n=%d m=%d d=%d offset %d: %v", n, m, d, off, err)
		}
	})
}

func TestMulABtRowsMatchesGathered(t *testing.T) {
	eachParityShape(func(n, m, d, off int, seed uint64) {
		if err := checkRows(n, m, d, off, seed); err != nil {
			t.Fatalf("n=%d m=%d d=%d offset %d: %v", n, m, d, off, err)
		}
	})
}

// TestMulABtRowsGate: the assembly tile dereferences the list unchecked, so a
// row outside b must be refused on both paths before anything is loaded or
// stored, with a constant message.
func TestMulABtRowsGate(t *testing.T) {
	a, b := NewMatrix(3, 4), NewMatrix(5, 4)
	for _, ks := range bothPaths() {
		for name, idx := range map[string][]int32{"past b": {0, 5, 1}, "negative": {2, -1}} {
			c := NewMatrix(3, len(idx))
			for i := range c.Data {
				c.Data[i] = 7
			}
			func() {
				defer func() {
					if got := recover(); got != "vec: MulABtRows index out of range" {
						t.Errorf("%s %s: recovered %v, want the gate's panic", ks.name, name, got)
					}
				}()
				ks.mulABtRows(c, a, b, idx)
			}()
			for _, v := range c.Data {
				if v != 7 {
					t.Fatalf("%s %s: a refused call wrote to the destination", ks.name, name)
				}
			}
		}
	}
}

func TestSelectGEMatchesDefinition(t *testing.T) {
	for n := 0; n <= 200; n++ { // below one lane group, across a mask word, across the leaf's 128-entry calls
		if err := checkSelectGE(n, 1+n%7, uint64(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	for _, n := range []int{255, 256, 257, 1500} {
		if err := checkSelectGE(n, 3, uint64(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// class is what must agree between the paths on non-finite data: NaN, +Inf,
// −Inf, or finite.
func class(x float32) int {
	switch f := float64(x); {
	case math.IsNaN(f):
		return 0
	case math.IsInf(f, 1):
		return 1
	case math.IsInf(f, -1):
		return 2
	}
	return 3
}

// TestKernelNonFinitePropagation plants NaN and ±Inf in each operand in turn
// and requires every output of the active path to be of the same class as the
// portable kernel's. Both skip exactly the zero weights, so that includes
// where a zero weight hides a non-finite source row.
func TestKernelNonFinitePropagation(t *testing.T) {
	inf := float32(math.Inf(1))
	poisons := []float32{float32(math.NaN()), inf, -inf}
	const n, m, d, off = 7, 9, 13, 3
	for pi, poison := range poisons {
		for operand := 0; operand < 3; operand++ {
			build := func() (a, b, g, accA, accB Matrix) {
				r := rng.New(uint64(41 + pi))
				a, b, g = offMatrix(r, n, d, off), offMatrix(r, m, d, off), offMatrix(r, n, m, off)
				sparsify(r, g, tableDensity)
				accA, accB = offMatrix(r, n, d, off), offMatrix(r, m, d, off)
				target := [][]float32{a.Data, b.Data, g.Data}[operand]
				for i := 5; i < len(target); i += 17 {
					target[i] = poison
				}
				return
			}
			run := func(ks kernels) []float32 {
				a, b, g, accA, accB := build()
				c := NewMatrix(n, m)
				ks.mulABtRows(c, a, b, nil)
				ks.addOuterAtB(accA, g, b)
				out := append(c.Data, accA.Data...)
				sg := sparseOf(g, off)
				ks.addRowsSparse(accA, sg, b)
				ks.addRowsSparse(accB, transposeOf(sg, m), a)
				out = append(out, accA.Data...)
				out = append(out, accB.Data...)
				out = append(out, ks.dot(a.Row(0), b.Row(0)))
				ks.axpy(0.75, a.Row(0), accB.Row(0))
				return append(out, accB.Row(0)...)
			}
			got, want := run(activeKernels), run(genericKernels)
			for i := range want {
				if class(got[i]) != class(want[i]) {
					t.Fatalf("poison %v in operand %d: output %d is %v on %s, %v on generic", poison, operand, i, got[i], Kernel(), want[i])
				}
			}
		}
	}
}

// TestKernelZeroWeightIsSkipped pins the zero skip of contract (ii) on both
// paths, with no carve-out: a ±0 weight contributes nothing whatever it
// shares a row with, so NaN and ±Inf source rows under zero weights leave
// the destination untouched bit for bit — through AddRowsSparse, through a
// transpose (which must carry the zeros along) and through the dense entry
// point.
func TestKernelZeroWeightIsSkipped(t *testing.T) {
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, ks := range bothPaths() {
		for _, d := range []int{1, 7, 8, 33, 64, 100} {
			r := rng.New(uint64(d))
			// Sources 0, 2, 4 are poisoned and carry weight ±0; 1 and 3 are
			// finite and carry real weights.
			src := offMatrix(r, 5, d, 3)
			for k, poison := range []float32{float32(math.NaN()), inf, -inf} {
				for i := range src.Row(2 * k) {
					src.Row(2 * k)[i] = poison
				}
			}
			g := MatrixFrom([]float32{0, 0.5, negZero, -2, 0, negZero, 0, 0, 0, negZero}, 2, 5)
			sg := &SparseRows{
				Start: []int32{0, 5, 10},
				Idx:   []int32{0, 1, 2, 3, 4, 0, 1, 2, 3, 4},
				W:     g.Data,
			}
			dst0 := offMatrix(r, 2, d, 5)
			dst0.Row(1)[0] = negZero // an all-zero row must keep even the sign of zero
			want := cloneMatrix(dst0)
			ks.axpy(0.5, src.Row(1), want.Row(0))
			ks.axpy(-2, src.Row(3), want.Row(0))
			for name, run := range map[string]func(dst Matrix){
				"AddRowsSparse": func(dst Matrix) { ks.addRowsSparse(dst, sg, src) },
				"AddOuterAtB":   func(dst Matrix) { ks.addOuterAtB(dst, g, src) },
				"AddRowsSparse(Gᵀᵀ)": func(dst Matrix) {
					ks.addRowsSparse(dst, transposeOf(transposeOf(sg, 5), 2), src)
				},
			} {
				got := cloneMatrix(dst0)
				run(got)
				if i := firstDiff(got.Data, want.Data); i >= 0 {
					t.Fatalf("%s %s d=%d: element %d = %v, want %v (zero weights over non-finite rows must be skipped)",
						ks.name, name, d, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestAddRowsSparseGate: the assembly leaf dereferences Idx unchecked, so a
// malformed SparseRows must be refused before any row runs, with a constant
// message (no formatting on the way to the panic).
func TestAddRowsSparseGate(t *testing.T) {
	src, dst := NewMatrix(3, 4), NewMatrix(2, 4)
	for name, g := range map[string]*SparseRows{
		"index past src":     {Start: []int32{0, 1, 2}, Idx: []int32{0, 3}, W: []float32{1, 1}},
		"negative index":     {Start: []int32{0, 1, 2}, Idx: []int32{-1, 0}, W: []float32{1, 1}},
		"start not monotone": {Start: []int32{0, 2, 1}, Idx: []int32{0}, W: []float32{1}},
		"start past entries": {Start: []int32{0, 1, 3}, Idx: []int32{0, 1}, W: []float32{1, 1}},
		"start not from 0":   {Start: []int32{1, 1, 2}, Idx: []int32{0, 1}, W: []float32{1, 1}},
		"weights short":      {Start: []int32{0, 1, 2}, Idx: []int32{0, 1}, W: []float32{1}},
	} {
		func() {
			defer func() {
				if got := recover(); got != "vec: AddRowsSparse over a malformed SparseRows" {
					t.Errorf("%s: recovered %v, want the gate's panic", name, got)
				}
			}()
			AddRowsSparse(dst, g, src)
		}()
	}
	for _, v := range dst.Data {
		if v != 0 {
			t.Fatal("a refused call wrote to the destination")
		}
	}
}

// TestMaxUint32: the gate's range test finds the largest index, read as
// unsigned, wherever it sits — in the 16-lane steps, the odd block of 8 or
// the masked tail — and whatever lies in memory after the list.
func TestMaxUint32(t *testing.T) {
	for n := 0; n <= 70; n++ {
		buf := make([]int32, n+9)
		for i := range buf {
			buf[i] = -1 // past the list: must never be read into the result
		}
		x := buf[1 : 1+n]
		for i := range x {
			x[i] = int32(i % 5)
		}
		if got := maxUint32(x); n > 0 && got != uint32(min(n-1, 4)) || n == 0 && got != 0 {
			t.Fatalf("n=%d: max %d", n, got)
		}
		for at := 0; at < n; at++ {
			for _, v := range []int32{1000, -7} {
				old := x[at]
				x[at] = v
				if got := maxUint32(x); got != uint32(v) {
					t.Fatalf("n=%d: max %d with %d at %d", n, got, uint32(v), at)
				}
				x[at] = old
			}
		}
	}
}

// TestTransposeIntoProperty: every (i, j, w) of s appears exactly once in sᵀ
// as (j, i, w), each column of s lists its rows ascending, Start is monotone
// over exactly the entries, and shapes with no rows or no columns work. The
// target is reused across shapes, as the Workspace reuses it.
func TestTransposeIntoProperty(t *testing.T) {
	r := rng.New(77)
	tr := new(SparseRows)
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}, {1, 1}, {3, 7}, {50, 100}, {9, 2}} {
		n, m := shape[0], shape[1]
		for _, density := range []uint8{0, 40, 255} {
			g := offMatrix(r, n, m, 1)
			sparsify(r, g, density)
			s := sparseOf(g, 2)
			s.TransposeInto(tr, m)
			if tr.Rows() != m || !validSparse(tr, max(n, 1)) || len(tr.Idx) != len(s.Idx) {
				t.Fatalf("%dx%d density %d: transpose has %d rows over %d entries (want %d over %d) or is malformed",
					n, m, density, tr.Rows(), len(tr.Idx), m, len(s.Idx))
			}
			seen := 0
			for j := 0; j < m; j++ {
				prev := int32(-1)
				for k := tr.Start[j]; k < tr.Start[j+1]; k++ {
					i := tr.Idx[k]
					if i <= prev {
						t.Fatalf("%dx%d: column %d lists row %d after row %d", n, m, j, i, prev)
					}
					prev = i
					// (i, j) must be an entry of s with the same weight.
					found := false
					for q := s.Start[i]; q < s.Start[i+1]; q++ {
						if s.Idx[q] == int32(j) && sameBits(s.W[q], tr.W[k]) {
							found = true
						}
					}
					if !found {
						t.Fatalf("%dx%d: transpose holds (%d,%d,%v) which s does not", n, m, i, j, tr.W[k])
					}
					seen++
				}
			}
			if seen != len(s.Idx) {
				t.Fatalf("%dx%d: transpose visits %d entries of %d", n, m, seen, len(s.Idx))
			}
		}
	}
}

// TestComplexLeavesBitwise: the complex leaves use unfused multiplies and
// adds in the portable code's order, so for every even d the active path is
// bitwise the portable one (which is why they need no tolerance of their own).
func TestComplexLeavesBitwise(t *testing.T) {
	for d := 0; d <= 130; d += 2 {
		if err := checkComplex(d, 1+d%7, uint64(1000+d)); err != nil {
			t.Fatal(err)
		}
	}
}

func checkComplex(d, off int, seed uint64) error {
	r := rng.New(seed)
	a, b, acc := offMatrix(r, 1, d, off), offMatrix(r, 1, d, off), offMatrix(r, 1, d, off)
	got, want := make([]float32, d+off)[off:], make([]float32, d)
	ComplexMul(got, a.Data, b.Data)
	complexMulGeneric(want, a.Data, b.Data, d/2)
	if i := firstDiff(got, want); i >= 0 {
		return fmt.Errorf("ComplexMul d=%d: element %d = %v on %s, %v portable", d, i, got[i], Kernel(), want[i])
	}
	gotAcc, wantAcc := cloneMatrix(acc), cloneMatrix(acc)
	ComplexMulConjAdd(gotAcc.Data, a.Data, b.Data)
	complexMulConjAddGeneric(wantAcc.Data, a.Data, b.Data, d/2)
	if i := firstDiff(gotAcc.Data, wantAcc.Data); i >= 0 {
		return fmt.Errorf("ComplexMulConjAdd d=%d: element %d = %v on %s, %v portable", d, i, gotAcc.Data[i], Kernel(), wantAcc.Data[i])
	}
	return nil
}

// checkHingeRow holds one path's hinge-row selection to its definition, and
// the two paths to each other: the same columns in the same order, the same
// masked count, and sums that agree to the float32 accuracy the assembly
// leaf's lane accumulators have.
func checkHingeRow(n, off int, seed uint64) error {
	r := rng.New(seed)
	scores := offMatrix(r, 1, n, off).Data
	ids := make([]int32, n+off)[off:]
	id := int32(r.Intn(3)) // 0 is what a masked tail load reads: must not count
	for j := range ids {
		ids[j] = int32(r.Intn(6))
	}
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), -1e30, 0}
	for j := 3; j < n; j += 7 {
		scores[j] = specials[(j/7)%len(specials)]
	}
	t := r.NormFloat32() // positive about half the time: dead tail lanes must not pass as t+0 > 0
	var wantIdx []int32
	var wantSum float64
	wantMasked := 0
	for j, sc := range scores {
		switch v := t + sc; {
		case ids[j] == id:
			wantMasked++
		case v > 0:
			wantIdx = append(wantIdx, int32(j))
			wantSum += float64(v)
		}
	}
	for _, ks := range bothPaths() {
		idx := make([]int32, n)
		k, sum, masked := ks.hingeRow(idx, scores, ids, t, id)
		if k != len(wantIdx) || masked != wantMasked {
			return fmt.Errorf("%s: %d selected, %d masked; want %d, %d", ks.name, k, masked, len(wantIdx), wantMasked)
		}
		for q := range wantIdx {
			if idx[q] != wantIdx[q] {
				return fmt.Errorf("%s: selection %d is column %d, want %d", ks.name, q, idx[q], wantIdx[q])
			}
		}
		if sum != wantSum && !(math.Abs(sum-wantSum) <= 1e-6*math.Abs(wantSum)) {
			return fmt.Errorf("%s: sum %v, want %v", ks.name, sum, wantSum)
		}
	}
	return nil
}

func TestHingeRowMatchesDefinition(t *testing.T) {
	for n := 0; n <= 200; n++ {
		if err := checkHingeRow(n, 1+n%7, uint64(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	for _, n := range []int{255, 256, 257, 511, 1500} { // across the leaf's 128-entry calls
		if err := checkHingeRow(n, 3, uint64(n)); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestAppendHingeRow: rows land in the SparseRows with the given weight and
// ascending columns, and a row longer than the room Reset reserved is refused.
func TestAppendHingeRow(t *testing.T) {
	var s SparseRows
	s.Reset(2, 4)
	sum, masked := s.AppendHingeRow([]float32{1, -3, 2, 0.5}, []int32{9, 9, 7, 9}, 1, 7, 2.5)
	if sum != 3.5 || masked != 1 || s.Rows() != 1 {
		t.Fatalf("first row: sum %v masked %d rows %d", sum, masked, s.Rows())
	}
	s.AppendHingeRow([]float32{-5, -5, -5, -5}, []int32{1, 2, 3, 4}, 1, 0, 2.5)
	want := SparseRows{Start: []int32{0, 2, 2}, Idx: []int32{0, 3}, W: []float32{2.5, 2.5}}
	if fmt.Sprint(s) != fmt.Sprint(want) {
		t.Fatalf("rows = %v, want %v", s, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a row past the reserved capacity was accepted")
		}
	}()
	s.AppendHingeRow(make([]float32, 9), make([]int32, 9), 1, 0, 1)
}

// FuzzKernelParity draws a shape, an allocation offset, a density of G and a
// seed, and holds both paths to contract (i), the assembly path to contract
// (ii), the complex leaves to bitwise parity, the hinge row and the threshold
// filter to their definitions, and MulABtRows to MulABt over a gathered copy.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(9), uint8(1), uint8(170), uint64(1))
	f.Add(uint8(50), uint8(100), uint8(64), uint8(7), uint8(40), uint64(2))
	f.Fuzz(func(t *testing.T, n, m, d, off, density uint8, seed uint64) {
		ni, mi, di, oi := int(n%64), int(m%64), int(d), 1+int(off%7)
		for _, ks := range bothPaths() {
			if err := checkBound(ks, ni, mi, di, oi, density, seed); err != nil {
				t.Fatalf("%s n=%d m=%d d=%d offset %d density %d seed %d: %v", ks.name, ni, mi, di, oi, density, seed, err)
			}
		}
		if Kernel() != "generic" {
			if err := checkPositionIndependent(ni, mi, di, oi, density, seed); err != nil {
				t.Fatalf("n=%d m=%d d=%d offset %d density %d seed %d: %v", ni, mi, di, oi, density, seed, err)
			}
		}
		if err := checkHingeRow(int(m)+int(d), oi, seed); err != nil {
			t.Fatalf("hinge row n=%d offset %d seed %d: %v", int(m)+int(d), oi, seed, err)
		}
		if err := checkComplex(di&^1, oi, seed); err != nil {
			t.Fatal(err)
		}
		if err := checkRows(ni, mi, di, oi, seed); err != nil {
			t.Fatalf("rows n=%d m=%d d=%d offset %d seed %d: %v", ni, mi, di, oi, seed, err)
		}
		if err := checkSelectGE(int(m)+int(d), oi, seed); err != nil {
			t.Fatalf("select n=%d offset %d seed %d: %v", int(m)+int(d), oi, seed, err)
		}
	})
}

// Benchmarks at the shapes the repository benchmark runs (n×m×d): the
// kg_mem training chunk, the social_ooc chunk, and the ragged IVF list scan
// of serve_topk. Each reports GFLOP/s on the assembly and the portable path;
// asm ÷ generic is the kernel speed-up.

func benchPaths(b *testing.B, flops int, run func(ks kernels)) {
	for _, path := range []struct {
		name string
		ks   kernels
	}{{"asm", activeKernels}, {"generic", genericKernels}} {
		b.Run(path.name, func(b *testing.B) {
			if path.name == "asm" && Kernel() == "generic" {
				b.Skip("this machine runs the generic kernels")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run(path.ks)
			}
			b.ReportMetric(float64(flops)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		})
	}
}

func BenchmarkMulABt(b *testing.B) {
	for _, s := range []struct {
		name    string
		n, m, d int
	}{{"train_50x100x64", 50, 100, 64}, {"ooc_10x20x128", 10, 20, 128}, {"serve_13x18x32", 13, 18, 32}} {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(3)
			am, bm, c := randMatrix(r, s.n, s.d), randMatrix(r, s.m, s.d), NewMatrix(s.n, s.m)
			benchPaths(b, 2*s.n*s.m*s.d, func(ks kernels) { ks.mulABtRows(c, am, bm, nil) })
		})
	}
}

// BenchmarkAddRowsSparse is the training backward product at the kg_mem chunk
// shape and three densities of G (0.1–0.25 is where ranking-loss training
// sits after the first epochs, 1 is what the dense losses emit), in GFLOP/s
// of the non-zeros: work the loss asked for, not work a tile grid implies.
func BenchmarkAddRowsSparse(b *testing.B) {
	for _, density := range []struct {
		name  string
		share uint8
	}{{"density_0.1", 26}, {"density_0.25", 64}, {"density_1", 255}} {
		b.Run("50x100x64/"+density.name, func(b *testing.B) {
			r := rng.New(3)
			acc, g, bm := randMatrix(r, 50, 64), randMatrix(r, 50, 100), randMatrix(r, 100, 64)
			for i := range g.Data {
				if r.Intn(255) >= int(density.share) {
					g.Data[i] = 0
				}
			}
			sg := sparseOf(g, 0)
			nnz := 0
			for _, w := range sg.W {
				if w != 0 {
					nnz++
				}
			}
			benchPaths(b, 2*nnz*64, func(ks kernels) { ks.addRowsSparse(acc, sg, bm) })
		})
	}
}

func BenchmarkAddOuterAtB(b *testing.B) {
	b.Run("train_50x100x64", func(b *testing.B) {
		r := rng.New(3)
		acc, g, bm := randMatrix(r, 50, 64), randMatrix(r, 50, 100), randMatrix(r, 100, 64)
		benchPaths(b, 2*50*100*64, func(ks kernels) { ks.addOuterAtB(acc, g, bm) })
	})
}

// BenchmarkMulABtRows is the list scan of serve_topk's IVF path as a batch
// runs it: a 20 000-row table at d = 32 whose rows sit, like a mapped shard's,
// 28 bytes off alignment, cut into 284 lists of ~70 scattered rows, each op
// scoring the next list against 13 probing queries — so the table streams
// through the caches once per 284 ops, as it does once per batch. in_place
// reads the rows where they lie; gather is what that replaces: copy the list's
// rows next to each other, then MulABt.
func BenchmarkMulABtRows(b *testing.B) {
	const n, d, rows, lists = 13, 32, 20000, 284
	r := rng.New(3)
	am, table := randMatrix(r, n, d), offMatrix(r, rows, d, 7)
	perm := make([]int, rows)
	r.Perm(perm)
	list := func(l int) []int32 {
		idx := make([]int32, 0, rows/lists+1)
		for _, row := range perm[l*rows/lists : (l+1)*rows/lists] {
			idx = append(idx, int32(row))
		}
		return idx
	}
	var idx [lists][]int32
	for l := range idx {
		idx[l] = list(l)
	}
	m := len(idx[0])
	scratch, out := NewMatrix(m+1, d), NewMatrix(n, m+1)
	score := func(gather bool) func(ks kernels) {
		l := 0
		return func(ks kernels) {
			ids := idx[l]
			l = (l + 1) % lists
			c := MatrixFrom(out.Data[:n*len(ids)], n, len(ids))
			if !gather {
				ks.mulABtRows(c, am, table, ids)
				return
			}
			g := MatrixFrom(scratch.Data[:len(ids)*d], len(ids), d)
			for j, row := range ids {
				copy(g.Row(j), table.Row(int(row)))
			}
			ks.mulABtRows(c, am, g, nil)
		}
	}
	b.Run("serve_13x70x32/in_place", func(b *testing.B) { benchPaths(b, 2*n*m*d, score(false)) })
	b.Run("serve_13x70x32/gather", func(b *testing.B) { benchPaths(b, 2*n*m*d, score(true)) })
}

// BenchmarkSelectGE filters one score row against a heap root: a probed
// list's 70 entries and a full 256-entry scan block, with 1 % of the entries
// surviving (a warm heap) and with half (a cold one), in ns per entry.
func BenchmarkSelectGE(b *testing.B) {
	for _, n := range []int{70, 256} {
		for _, share := range []struct {
			name string
			t    float32
		}{{"survivors_1%", 2.33}, {"survivors_50%", 0}} {
			b.Run(fmt.Sprintf("%d/%s", n, share.name), func(b *testing.B) {
				r := rng.New(3)
				x, idx := randMatrix(r, 1, n).Data, make([]int32, n)
				for _, path := range []struct {
					name string
					ks   kernels
				}{{"asm", activeKernels}, {"generic", genericKernels}} {
					b.Run(path.name, func(b *testing.B) {
						if path.name == "asm" && Kernel() == "generic" {
							b.Skip("this machine runs the generic kernels")
						}
						for i := 0; i < b.N; i++ {
							path.ks.selectGE(idx, x, share.t)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/entry")
					})
				}
			})
		}
	}
}
