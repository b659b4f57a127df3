package vec

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"pbg/internal/rng"
)

// The parity suite of the numerical contract in kernel.go: both kernel paths
// against a float64 reference (i), and the assembly path against itself for
// position-independence (ii), over shapes that put every tile edge, every
// d mod 8 and unaligned operands on the path.

// kernels is one implementation of the dispatched entry points.
type kernels struct {
	name           string
	dot            func(a, b []float32) float32
	axpy           func(alpha float32, x, y []float32)
	mulABtRows     func(c, a, b Matrix, idx []int32)
	mulABtReusing  func(c, a, b, t Matrix)
	addOuterAtB    func(a, g, b Matrix)
	addRowsSparse  func(dst Matrix, g *SparseRows, src Matrix)
	addRowsSparseT func(dst Matrix, g *SparseRows, src Matrix)
	hingeRow       func(idx []int32, ws []float32, scores []float32, ids []int32, t float32, id int32, w float32) (int, float64, int)
	selectGE       func(idx []int32, x []float32, t float32) int
	adagradRows    func(embs, acc []float32, ids []int32, first int32, g Matrix, lr, eps float32)
}

var (
	genericKernels = kernels{
		"generic", dotGeneric, axpyGeneric,
		func(c, a, b Matrix, idx []int32) { checkMulABt(c, a, b, idx); mulABtGeneric(c, a, b, idx, 0) },
		func(c, a, b, t Matrix) { checkMulABt(c, a, b, nil); checkReuse(c, t); mulABtReusing(c, a, b, t, false) },
		func(a, g, b Matrix) { addOuterDense(a, g, b, false) },
		func(dst Matrix, g *SparseRows, src Matrix) { addRowsSparse(dst, g, src, false) },
		func(dst Matrix, g *SparseRows, src Matrix) { addRowsSparseT(dst, g, src, false) },
		hingeRowGeneric, selectGEGeneric,
		func(embs, acc []float32, ids []int32, first int32, g Matrix, lr, eps float32) {
			checkAdagradRows(embs, acc, ids, first, g)
			adagradRowsGeneric(embs, acc, ids, first, g, lr, eps)
		},
	}
	activeKernels = kernels{Kernel(), Dot, Axpy, MulABtRows, MulABtReusing, AddOuterAtB, AddRowsSparse, AddRowsSparseT, hingeRow, SelectGE, AdagradRows}
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

// transposeOf returns sᵀ, s taken as a Rows()×cols matrix: a counting sort
// by column, so row j of the result lists column j's entries, explicit ±0
// weights included, in ascending row order of s. It is the reference
// AddRowsSparseT is held to: the Axpy chain over its rows (axpyChain), and
// AddRowsSparse over it.
func transposeOf(s *SparseRows, cols int) *SparseRows {
	nnz := len(s.Idx)
	t := &SparseRows{Start: make([]int32, cols+1), Idx: make([]int32, nnz), W: make([]float32, nnz)}
	// Start[j+1] counts column j, then becomes where column j's next entry
	// goes; once every entry is placed that is where column j+1 begins.
	for _, j := range s.Idx {
		t.Start[j+1]++
	}
	var at int32
	for j := 1; j <= cols; j++ {
		at, t.Start[j] = at+t.Start[j], at
	}
	for i := 0; i < s.Rows(); i++ {
		for k := s.Start[i]; k < s.Start[i+1]; k++ {
			j := s.Idx[k] + 1
			p := t.Start[j]
			t.Idx[p], t.W[p] = int32(i), s.W[k]
			t.Start[j] = p + 1
		}
	}
	return t
}

// axpyChain accumulates dst += t·src as ks's Axpy calls, one per non-zero
// entry of t in row-major order: what AddRowsSparse over t, and
// AddRowsSparseT over tᵀ, must be bitwise on the same path.
func axpyChain(ks kernels, dst Matrix, t *SparseRows, src Matrix) {
	for j := 0; j < t.Rows(); j++ {
		for k := t.Start[j]; k < t.Start[j+1]; k++ {
			if t.W[k] != 0 {
				ks.axpy(t.W[k], src.Row(int(t.Idx[k])), dst.Row(j))
			}
		}
	}
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
	gT := transposeOf(sg, m)
	chain := cloneMatrix(accB0)
	axpyChain(ks, chain, gT, a)
	for _, run := range []struct {
		op string
		f  func(dst Matrix)
	}{
		{"AddRowsSparse(Gᵀ)", func(dst Matrix) { ks.addRowsSparse(dst, gT, a) }},
		{"AddRowsSparseT(G)", func(dst Matrix) { ks.addRowsSparseT(dst, sg, a) }},
	} {
		accB := cloneMatrix(accB0)
		run.f(accB)
		if err := outer(run.op, accB0, accB, a, func(p, q int) float32 { return g.Row(q)[p] }); err != nil {
			return err
		}
		if i := firstDiff(accB.Data, chain.Data); i >= 0 {
			return fmt.Errorf("%s element %d = %v, Axpy chain over the transpose %v", run.op, i, accB.Data[i], chain.Data[i])
		}
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
	// through AddRowsSparse, Gᵀ·A through AddRowsSparse over the transpose
	// and through AddRowsSparseT's scatter — against the Axpy chain.
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
	for _, run := range []struct {
		op string
		f  func(dst Matrix)
	}{
		{"AddRowsSparse(Gᵀ)", func(dst Matrix) { AddRowsSparse(dst, transposeOf(sg, m), a) }},
		{"AddRowsSparseT(G)", func(dst Matrix) { AddRowsSparseT(dst, sg, a) }},
	} {
		got := cloneMatrix(accB0)
		run.f(got)
		if i := firstDiff(got.Data, want.Data); i >= 0 {
			return fmt.Errorf("%s element %d = %v, Axpy chain %v", run.op, i, got.Data[i], want.Data[i])
		}
	}
	return nil
}

// checkScatter holds AddRowsSparseT to the Axpy chain over the transpose on
// every path, with NaN, ±Inf and ±0 planted among G's weights: each path's
// scatter is bitwise its own chain (any NaN matching any NaN — which NaN
// payload a fused multiply-add returns depends on its operand order), and
// the paths agree on every output's class.
func checkScatter(n, m, d, off int, density uint8, seed uint64) error {
	r := rng.New(seed)
	a, g := offMatrix(r, n, d, off), offMatrix(r, n, m, off)
	sparsify(r, g, density)
	sg := sparseOf(g, off)
	inf, negZero := float32(math.Inf(1)), float32(math.Copysign(0, -1))
	specials := []float32{float32(math.NaN()), inf, -inf, negZero, 0}
	for k := 2; k < len(sg.W); k += 7 {
		sg.W[k] = specials[(k/7)%len(specials)]
	}
	gT := transposeOf(sg, m)
	accB0 := offMatrix(r, m, d, off)
	var outs [][]float32
	for _, ks := range bothPaths() {
		want, got := cloneMatrix(accB0), cloneMatrix(accB0)
		axpyChain(ks, want, gT, a)
		ks.addRowsSparseT(got, sg, a)
		for i := range want.Data {
			if x, y := got.Data[i], want.Data[i]; !sameBits(x, y) && !(x != x && y != y) {
				return fmt.Errorf("%s: AddRowsSparseT element %d = %v, Axpy chain over the transpose %v", ks.name, i, x, y)
			}
		}
		outs = append(outs, got.Data)
	}
	for i := range outs[0] {
		if class(outs[0][i]) != class(outs[len(outs)-1][i]) {
			return fmt.Errorf("AddRowsSparseT element %d is %v on %s, %v on generic", i, outs[0][i], Kernel(), outs[len(outs)-1][i])
		}
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
// the strip's lone last column reads through the list too — it is bitwise the same
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

// checkReusing holds MulABtReusing to its definition on every path: given
// the leading k columns as T = MulABt(B[:k], X) over rows X that extend A by
// a few more, it is bitwise the same path's MulABt(c, a, b) — for k = 0, one
// column, about half of them and all of them, so both products' partial
// strips and lone columns meet every class of cell.
func checkReusing(n, m, d, off int, seed uint64) error {
	r := rng.New(seed)
	for _, extra := range []int{0, 3} {
		x, b := offMatrix(r, n+extra, d, off), offMatrix(r, m, d, off)
		a := MatrixFrom(x.Data[:n*d], n, d)
		for _, k := range []int{0, min(1, m), m / 2, m} {
			for _, ks := range bothPaths() {
				t := offMatrix(r, k, n+extra, off)
				ks.mulABtRows(t, MatrixFrom(b.Data[:k*d], k, d), x, nil)
				got, want := offMatrix(r, n, m, off), offMatrix(r, n, m, off)
				ks.mulABtReusing(got, a, b, t)
				ks.mulABtRows(want, a, b, nil)
				if i := firstDiff(got.Data, want.Data); i >= 0 {
					return fmt.Errorf("%s, %d reused columns, %d extra rows: element %d = %v, MulABt %v", ks.name, k, extra, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
	return nil
}

// checkSelectGE holds both paths' threshold filter to its definition — the
// ascending positions not strictly below t — over rows salted with NaN, ±Inf
// and exact ties with the threshold, and with NaN and ±Inf as the threshold.
// The list it fills has PackSlack entries of room past n and a canary past
// those, which no path may touch.
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
			buf := make([]int32, off+n+PackSlack+canaries)[off:]
			fillCanaries(buf, n+PackSlack)
			idx := buf[:n+PackSlack]
			if k := ks.selectGE(idx, x, t); k != len(want) {
				return fmt.Errorf("%s: threshold %v selects %d of %d, want %d", ks.name, t, k, n, len(want))
			}
			for q := range want {
				if idx[q] != want[q] {
					return fmt.Errorf("%s: threshold %v selection %d is position %d, want %d", ks.name, t, q, idx[q], want[q])
				}
			}
			if at := touchedCanary(buf, n+PackSlack); at >= 0 {
				return fmt.Errorf("%s: threshold %v wrote entry %d, past the %d-entry slack", ks.name, t, at, PackSlack)
			}
		}
	}
	return nil
}

// canaries is how many entries past its slack a selection pass's list gets,
// each holding canary: a pass that wrote past its slack would change one.
const (
	canaries = 9
	canary   = 0x5eed5eed
)

// fillCanaries sets buf[from:] to the canary bits.
func fillCanaries[T int32 | float32](buf []T, from int) {
	for i := from; i < len(buf); i++ {
		*(*uint32)(unsafe.Pointer(&buf[i])) = canary
	}
}

// touchedCanary returns the first entry of buf[from:] that no longer holds
// the canary bits, or −1.
func touchedCanary[T int32 | float32](buf []T, from int) int {
	for i := from; i < len(buf); i++ {
		if *(*uint32)(unsafe.Pointer(&buf[i])) != canary {
			return i
		}
	}
	return -1
}

// adagradChain is the definition AdagradRows is held to on each path: for
// each listed row in order, ks's Dot of the gradient row with itself, the
// scalar accumulator and step, and ks's Axpy — skipped, as Axpy skips it,
// when the step is zero.
func adagradChain(ks kernels, embs, acc []float32, ids []int32, first int32, g Matrix, lr, eps float32) {
	d := g.Cols
	for k, id := range ids {
		r, gk := int(id-first), g.Row(k)
		ss := ks.dot(gk, gk)
		if ss == 0 {
			continue
		}
		acc[r] += ss / float32(d)
		if step := lr / (float32(math.Sqrt(float64(acc[r]))) + eps); step != 0 {
			ks.axpy(-step, gk, embs[r*d:(r+1)*d])
		}
	}
}

// firstDiffNaN is firstDiff with every NaN equal to every other: which NaN's
// bits survive where two meet depends on the operand order an instruction
// takes, which the Go compiler picks freely for + and * (and picks
// differently under -race), so only NaN-ness is arithmetic.
func firstDiffNaN(x, y []float32) int {
	for i := range x {
		if !sameBits(x[i], y[i]) && !(x[i] != x[i] && y[i] != y[i]) {
			return i
		}
	}
	return -1
}

// checkAdagradBlock holds each path's AdagradRows to that path's per-row
// chain, bit for bit (a NaN only to a NaN), on a block of n listed rows of d floats over a table
// of a few rows starting at a non-zero first id, so rows repeat in the list
// and order matters. The block plants all-zero gradient rows (their table
// rows and accumulators must keep their bits when listed nowhere else), a
// NaN, a +Inf and a −Inf row, and one accumulator already at +Inf, whose
// step is 0 and must be skipped as Axpy skips a zero alpha; the learning
// rate is sometimes 0 too. Operands are offset off floats.
func checkAdagradBlock(n, d, off int, seed uint64) error {
	r := rng.New(seed)
	rows := 1 + int(seed%5)
	first := int32(seed % 97)
	table, acc := offMatrix(r, rows+1, d, off), offMatrix(r, 1, rows+1, off).Data
	for i := range acc {
		acc[i] = acc[i] * acc[i]
	}
	acc[1] = float32(math.Inf(1))
	zeroRow := rows // listed only under zero gradients
	g := offMatrix(r, n, d, off)
	ids := make([]int32, off+n)[off:]
	for k := range ids {
		ids[k] = first + int32(r.Intn(rows))
		switch {
		case k%7 == 3:
			Zero(g.Row(k))
			ids[k] = first + int32(zeroRow)
		case k%11 == 5 && d > 0:
			g.Row(k)[r.Intn(d)] = []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))}[k%3]
		}
	}
	lr, eps := []float32{0.1, 0, 3}[seed%3], float32(1e-8)
	before := cloneMatrix(table)
	for _, ks := range bothPaths() {
		got, gotAcc := cloneMatrix(table), append([]float32(nil), acc...)
		want, wantAcc := cloneMatrix(table), append([]float32(nil), acc...)
		ks.adagradRows(got.Data, gotAcc, ids, first, g, lr, eps)
		adagradChain(ks, want.Data, wantAcc, ids, first, g, lr, eps)
		if i := firstDiffNaN(got.Data, want.Data); i >= 0 {
			return fmt.Errorf("%s: row %d float %d = %v, per-row chain %v", ks.name, i/max(d, 1), i%max(d, 1), got.Data[i], want.Data[i])
		}
		if i := firstDiffNaN(gotAcc, wantAcc); i >= 0 {
			return fmt.Errorf("%s: accumulator %d = %v, per-row chain %v", ks.name, i, gotAcc[i], wantAcc[i])
		}
		if firstDiff(got.Row(zeroRow), before.Row(zeroRow)) >= 0 || !sameBits(gotAcc[zeroRow], acc[zeroRow]) {
			return fmt.Errorf("%s: a row listed only under zero gradients changed", ks.name)
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

// TestMulABtReusingMatchesMulABt runs every row count of the table at three
// widths (the classes of a cell follow n and m, not d; FuzzKernelParity
// draws d too).
func TestMulABtReusingMatchesMulABt(t *testing.T) {
	eachParityShape(func(n, m, d, off int, seed uint64) {
		if d != 1 && d != 9 && d != 64 {
			return
		}
		if err := checkReusing(n, m, d, off, seed); err != nil {
			t.Fatalf("n=%d m=%d d=%d offset %d: %v", n, m, d, off, err)
		}
	})
}

// TestMulABtRowsGate: the assembly leaf dereferences the list unchecked, so a
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
				ks.addRowsSparseT(accB, sg, a)
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
// the destination untouched bit for bit — through AddRowsSparse, through
// AddRowsSparseT's scatter over the transpose built in this file (which must
// carry the zeros along), through AddRowsSparse over the transpose of that,
// and through the dense entry point.
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
				"AddRowsSparseT(Gᵀ)": func(dst Matrix) { ks.addRowsSparseT(dst, transposeOf(sg, 5), src) },
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

// TestAddRowsSparseGate: the assembly leaves dereference Idx unchecked, so a
// malformed SparseRows must be refused by both sparse products before any
// row runs, with a fixed message (no formatting on the way to the panic).
// For AddRowsSparse the indices name rows of src; for AddRowsSparseT, whose
// src is the smaller matrix here, rows of dst.
func TestAddRowsSparseGate(t *testing.T) {
	big, small := NewMatrix(3, 4), NewMatrix(2, 4)
	for _, op := range []struct {
		name     string
		run      func(g *SparseRows)
		dst, msg string
	}{
		{"AddRowsSparse", func(g *SparseRows) { AddRowsSparse(small, g, big) }, "small", "vec: AddRowsSparse over a malformed SparseRows"},
		{"AddRowsSparseT", func(g *SparseRows) { AddRowsSparseT(big, g, small) }, "big", "vec: AddRowsSparseT over a malformed SparseRows"},
	} {
		for name, g := range map[string]*SparseRows{
			"index past the rows": {Start: []int32{0, 1, 2}, Idx: []int32{0, 3}, W: []float32{1, 1}},
			"negative index":      {Start: []int32{0, 1, 2}, Idx: []int32{-1, 0}, W: []float32{1, 1}},
			"start not monotone":  {Start: []int32{0, 2, 1}, Idx: []int32{0}, W: []float32{1}},
			"start past entries":  {Start: []int32{0, 1, 3}, Idx: []int32{0, 1}, W: []float32{1, 1}},
			"start not from 0":    {Start: []int32{1, 1, 2}, Idx: []int32{0, 1}, W: []float32{1, 1}},
			"weights short":       {Start: []int32{0, 1, 2}, Idx: []int32{0, 1}, W: []float32{1}},
		} {
			func() {
				defer func() {
					if got := recover(); got != op.msg {
						t.Errorf("%s %s: recovered %v, want the gate's panic", op.name, name, got)
					}
				}()
				op.run(g)
			}()
		}
	}
	for _, v := range append(big.Data, small.Data...) {
		if v != 0 {
			t.Fatal("a refused call wrote to the destination")
		}
	}
}

// TestMinMaxInt32: the gates' range test finds the smallest and the largest
// index wherever they sit — in the 8-lane steps or the masked tail — and
// whatever lies in memory around the list.
func TestMinMaxInt32(t *testing.T) {
	for n := 1; n <= 70; n++ {
		buf := make([]int32, n+9)
		for i := range buf {
			buf[i] = []int32{-1 << 31, 1<<31 - 1}[i%2] // around the list: never read into the result
		}
		x := buf[1 : 1+n]
		for i := range x {
			x[i] = int32(i%5) + 3
		}
		for at := -1; at < n; at++ {
			for _, v := range []int32{1000, -7, 1<<31 - 1, -1 << 31} {
				if at >= 0 {
					x[at] = v
				}
				lo, hi := minMaxInt32(x)
				if lo != slices.Min(x) || hi != slices.Max(x) {
					t.Fatalf("n=%d, %d at %d: min %d max %d, want %d %d", n, v, at, lo, hi, slices.Min(x), slices.Max(x))
				}
			}
			if at >= 0 {
				x[at] = int32(at%5) + 3
			}
		}
	}
}

// TestTransposeOfProperty holds the reference transpose the scatter is
// tested against to its definition: every (i, j, w) of s appears exactly once
// in sᵀ as (j, i, w), each column of s lists its rows ascending, Start is
// monotone over exactly the entries, and shapes with no rows or no columns
// work.
func TestTransposeOfProperty(t *testing.T) {
	r := rng.New(77)
	for _, shape := range [][2]int{{0, 5}, {5, 0}, {0, 0}, {1, 1}, {3, 7}, {50, 100}, {9, 2}} {
		n, m := shape[0], shape[1]
		for _, density := range []uint8{0, 40, 255} {
			g := offMatrix(r, n, m, 1)
			sparsify(r, g, density)
			s := sparseOf(g, 2)
			tr := transposeOf(s, m)
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
// the two paths to each other: the same columns in the same order, each with
// the row's weight beside it, the same masked count, and sums that agree to
// the float32 accuracy the assembly leaf's lane accumulators have. Neither
// path may write past the PackSlack entries of room past n it is given.
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
	const w = 2.5
	for _, ks := range bothPaths() {
		idxBuf, wBuf := make([]int32, n+PackSlack+canaries), make([]float32, n+PackSlack+canaries)
		fillCanaries(idxBuf, n+PackSlack)
		fillCanaries(wBuf, n+PackSlack)
		idx, ws := idxBuf[:n+PackSlack], wBuf[:n+PackSlack]
		k, sum, masked := ks.hingeRow(idx, ws, scores, ids, t, id, w)
		if k != len(wantIdx) || masked != wantMasked {
			return fmt.Errorf("%s: %d selected, %d masked; want %d, %d", ks.name, k, masked, len(wantIdx), wantMasked)
		}
		for q := range wantIdx {
			if idx[q] != wantIdx[q] || ws[q] != w {
				return fmt.Errorf("%s: selection %d is column %d weight %v, want %d weight %v", ks.name, q, idx[q], ws[q], wantIdx[q], w)
			}
		}
		if at := max(touchedCanary(idxBuf, n+PackSlack), touchedCanary(wBuf, n+PackSlack)); at >= 0 {
			return fmt.Errorf("%s: wrote entry %d, past the %d-entry slack", ks.name, at, PackSlack)
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
// ascending columns, and a row one entry longer than the room Reset reserved
// (rows×cols plus PackSlack, less what the block already holds) is refused.
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
	n := cap(s.Idx) - len(s.Idx) - PackSlack + 1
	s.AppendHingeRow(make([]float32, n), make([]int32, n), 1, 0, 1)
}

// TestAdagradRowsMatchesChain runs checkAdagradBlock at every d from 0 to
// 130 — each d mod 8 tail, one and two 8-float blocks and the two-block
// steps of the Axpy — and at block lengths from an empty list to ones that
// list each table row many times.
func TestAdagradRowsMatchesChain(t *testing.T) {
	for d := 0; d <= 130; d++ {
		for _, n := range []int{0, 1, 7, 50} {
			if err := checkAdagradBlock(n, d, 1+(d+n)%7, uint64(d*131+n)); err != nil {
				t.Fatalf("n=%d d=%d: %v", n, d, err)
			}
		}
	}
}

// TestAdagradRowsGate: the assembly leaf addresses table rows from the ids
// unchecked, so an id below first or past the table, or a block whose shape
// does not match, must be refused on every path before any row or
// accumulator is written — the bad id sits last in the list, after rows a
// gate that ran late would already have updated. The id message is fixed
// (no formatting on the way to the panic).
func TestAdagradRowsGate(t *testing.T) {
	const first, rows, d = 10, 3, 5
	for name, c := range map[string]struct {
		ids []int32
		g   Matrix
		msg string
	}{
		"id below first": {[]int32{10, 11, 9}, MatrixFrom(make([]float32, 3*d), 3, d), "vec: AdagradRows id outside the table"},
		"id past table":  {[]int32{10, 12, 13}, MatrixFrom(make([]float32, 3*d), 3, d), "vec: AdagradRows id outside the table"},
		"negative id":    {[]int32{10, -1 << 31}, MatrixFrom(make([]float32, 2*d), 2, d), "vec: AdagradRows id outside the table"},
		// Past one 8-lane step: the bad id in a second whole step, and in
		// the masked tail.
		"id just below first, 16 ids": {[]int32{10, 11, 12, 10, 11, 12, 10, 11, 12, 10, 11, 12, 10, 11, 12, 9}, MatrixFrom(make([]float32, 16*d), 16, d), "vec: AdagradRows id outside the table"},
		"id just past table, 9 ids":   {[]int32{10, 11, 12, 10, 11, 12, 10, 11, 13}, MatrixFrom(make([]float32, 9*d), 9, d), "vec: AdagradRows id outside the table"},
		"block rows short":            {[]int32{10, 11}, MatrixFrom(make([]float32, d), 1, d), ""},
		"block too wide":              {[]int32{10}, MatrixFrom(make([]float32, d+1), 1, d+1), ""},
	} {
		for i := range c.g.Data {
			c.g.Data[i] = 1
		}
		for _, ks := range bothPaths() {
			embs, acc := make([]float32, rows*d), make([]float32, rows)
			func() {
				defer func() {
					got := recover()
					if got == nil || c.msg != "" && got != c.msg {
						t.Errorf("%s %s: recovered %v, want the gate's panic", ks.name, name, got)
					}
				}()
				ks.adagradRows(embs, acc, c.ids, first, c.g, 0.1, 1e-8)
			}()
			for _, v := range append(embs, acc...) {
				if v != 0 {
					t.Fatalf("%s %s: a refused call wrote to the table", ks.name, name)
				}
			}
		}
	}
}

// FuzzKernelParity draws a shape, an allocation offset, a density of G and a
// seed, and holds both paths to contract (i), the assembly path to contract
// (ii), the complex leaves to bitwise parity, the hinge row and the threshold
// filter to their definitions (ascending positions, at any density, nothing
// written past their slack), AdagradRows over an m-row block to the same
// path's per-row Dot → scalar → Axpy chain, MulABtRows to MulABt over a gathered copy,
// MulABtReusing to MulABt, and AddRowsSparseT on every path to the Axpy chain
// over the transpose, with NaN, ±Inf and ±0 weights planted (checkBound
// holds it there on finite weights too).
// checkRows lists m+1 rows, so the seeds with m = 69 score a 70-row serve
// list at d = 32 and offset 7, and m = 6, 7, 8 lists of one row fewer than
// the leaf's look-ahead distance, exactly it and one more. The seeds after
// those give the last strip 1, 2 and 3 rows (its 1×8, 2×4 and aliased 4×2
// tiles) against an odd and an even m below one 1×8 tile, dense and listed,
// at d with and without a tail.
func FuzzKernelParity(f *testing.F) {
	f.Add(uint8(5), uint8(3), uint8(9), uint8(1), uint8(170), uint64(1))
	f.Add(uint8(50), uint8(100), uint8(64), uint8(7), uint8(40), uint64(2))
	f.Add(uint8(13), uint8(69), uint8(32), uint8(6), uint8(170), uint64(15))
	for m := uint8(6); m <= 8; m++ {
		f.Add(uint8(13), m, uint8(32), uint8(6), uint8(170), uint64(16+m))
	}
	for n := uint8(1); n <= 3; n++ {
		for _, m := range []uint8{3, 6} {
			for _, d := range []uint8{32, 37} {
				f.Add(n, m, d, n+m, uint8(170), uint64(n)*100+uint64(m)*10+uint64(d))
			}
		}
	}
	f.Fuzz(func(t *testing.T, n, m, d, off, density uint8, seed uint64) {
		ni, mi, di, oi := int(n%64), int(m%128), int(d), 1+int(off%7)
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
		if err := checkAdagradBlock(mi, di, oi, seed); err != nil {
			t.Fatalf("adagrad n=%d d=%d offset %d seed %d: %v", mi, di, oi, seed, err)
		}
		if err := checkReusing(ni, mi, di, oi, seed); err != nil {
			t.Fatalf("reusing n=%d m=%d d=%d offset %d seed %d: %v", ni, mi, di, oi, seed, err)
		}
		if err := checkScatter(ni, mi, di, oi, density, seed); err != nil {
			t.Fatalf("scatter n=%d m=%d d=%d offset %d density %d seed %d: %v", ni, mi, di, oi, density, seed, err)
		}
	})
}

// Benchmarks at the shapes the repository benchmark runs (n×m×d): the
// kg_mem training chunk, the social_ooc chunk, the ragged IVF list scan of
// serve_topk, the exact scan's 32×256 block (vec.mulabt_gflops.serve's
// shape), eval's one query row against 1 001 candidates, and a 70-row IVF
// list scored for 13 probing queries (a last strip of one row) and for one
// (batch-1 serving). Each reports GFLOP/s on the assembly and the portable
// path; asm ÷ generic is the kernel speed-up.

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
	}{
		{"train_50x100x64", 50, 100, 64}, {"ooc_10x20x128", 10, 20, 128}, {"serve_13x18x32", 13, 18, 32},
		{"exact_32x256x32", 32, 256, 32}, {"eval_1x1001x64", 1, 1001, 64},
		{"ivf_list_13x70x32", 13, 70, 32}, {"b1_1x70x32", 1, 70, 32},
	} {
		b.Run(s.name, func(b *testing.B) {
			r := rng.New(3)
			am, bm, c := randMatrix(r, s.n, s.d), randMatrix(r, s.m, s.d), NewMatrix(s.n, s.m)
			benchPaths(b, 2*s.n*s.m*s.d, func(ks kernels) { ks.mulABtRows(c, am, bm, nil) })
		})
	}
}

// BenchmarkAddRowsSparse is the training backward's two products, in GFLOP/s
// of the non-zeros: work the loss asked for, not work a tile grid implies.
// G·B (AddRowsSparse, the gather) runs at the kg_mem chunk shape and three
// densities of G (0.1–0.25 is where ranking-loss training sits after the
// first epochs, 1 is what the dense losses emit). Gᵀ·A (AddRowsSparseT, the
// scatter, under GT/) runs at the chunk shapes n×m×d of kg_mem, social_ooc and
// the training in serve_topk's set-up, at densities seen there.
func BenchmarkAddRowsSparse(b *testing.B) {
	for _, s := range []struct {
		name    string
		n, m, d int
		share   uint8
	}{
		{"kg_mem_50x100x64/density_0.3", 50, 100, 64, 77},
		{"ooc_10x20x128/density_0.2", 10, 20, 128, 51},
		{"serve_setup_50x100x32/density_0.3", 50, 100, 32, 77},
	} {
		b.Run("GT/"+s.name, func(b *testing.B) {
			r := rng.New(3)
			acc, g, am := randMatrix(r, s.m, s.d), randMatrix(r, s.n, s.m), randMatrix(r, s.n, s.d)
			for i := range g.Data {
				if r.Intn(255) >= int(s.share) {
					g.Data[i] = 0
				}
			}
			sg := sparseOf(g, 0)
			benchPaths(b, 2*nonZeros(sg)*s.d, func(ks kernels) { ks.addRowsSparseT(acc, sg, am) })
		})
	}
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
			benchPaths(b, 2*nonZeros(sg)*64, func(ks kernels) { ks.addRowsSparse(acc, sg, bm) })
		})
	}
}

// nonZeros counts the weights of s that are not ±0.
func nonZeros(s *SparseRows) int {
	n := 0
	for _, w := range s.W {
		if w != 0 {
			n++
		}
	}
	return n
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
				x, idx := randMatrix(r, 1, n).Data, make([]int32, n+PackSlack)
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
