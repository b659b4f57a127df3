package optim

import (
	"math"
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// updateRow is Update over a one-row table listed once: the step of one row
// and its accumulator.
func updateRow(o RowAdagrad, param, grad []float32, acc *float32) {
	a := []float32{*acc}
	o.Update(param, a, []int32{0}, 0, vec.MatrixFrom(grad, 1, len(grad)))
	*acc = a[0]
}

func TestRowAdagradFirstStep(t *testing.T) {
	o := NewRowAdagrad(0.1)
	param := []float32{1, 1}
	grad := []float32{1, -1}
	var acc float32
	updateRow(o, param, grad, &acc)
	// A = (1+1)/2 = 1; step = 0.1/(1+eps).
	if math.Abs(float64(acc-1)) > 1e-6 {
		t.Fatalf("acc = %v, want 1", acc)
	}
	if math.Abs(float64(param[0]-0.9)) > 1e-5 || math.Abs(float64(param[1]-1.1)) > 1e-5 {
		t.Fatalf("param = %v", param)
	}
}

func TestRowAdagradShrinksSteps(t *testing.T) {
	o := NewRowAdagrad(0.1)
	param := []float32{0}
	var acc float32
	prev := float32(0)
	var steps []float32
	for i := 0; i < 5; i++ {
		updateRow(o, param, []float32{1}, &acc)
		steps = append(steps, prev-param[0])
		prev = param[0]
	}
	for i := 1; i < len(steps); i++ {
		if steps[i] >= steps[i-1] {
			t.Fatalf("Adagrad steps not decreasing: %v", steps)
		}
	}
}

func TestRowAdagradZeroGradNoop(t *testing.T) {
	o := NewRowAdagrad(0.1)
	param := []float32{3, 4}
	var acc float32 = 2
	updateRow(o, param, []float32{0, 0}, &acc)
	if param[0] != 3 || param[1] != 4 || acc != 2 {
		t.Fatal("zero gradient must not change state")
	}
}

func TestRowAdagradAccumulatorIsMeanSquare(t *testing.T) {
	o := NewRowAdagrad(1)
	param := make([]float32, 4)
	var acc float32
	updateRow(o, param, []float32{2, 2, 2, 2}, &acc)
	if math.Abs(float64(acc-4)) > 1e-6 {
		t.Fatalf("acc = %v, want mean square 4", acc)
	}
}

func TestDenseAdagrad(t *testing.T) {
	o := NewDenseAdagrad(0.5, 3)
	param := []float32{1, 1, 1}
	o.Update(param, []float32{1, 0, 2})
	// Elements with zero grad untouched, including their accumulator.
	if param[1] != 1 || o.Acc[1] != 0 {
		t.Fatal("zero-grad element modified")
	}
	if param[0] >= 1 || param[2] >= 1 {
		t.Fatalf("param = %v", param)
	}
	// Per-element accumulators differ.
	if o.Acc[0] != 1 || o.Acc[2] != 4 {
		t.Fatalf("acc = %v", o.Acc)
	}
	o.Reset()
	for _, a := range o.Acc {
		if a != 0 {
			t.Fatal("Reset did not clear accumulator")
		}
	}
}

func TestDenseAdagradSizeMismatchPanics(t *testing.T) {
	o := NewDenseAdagrad(0.5, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	o.Update([]float32{1, 2, 3}, []float32{1, 2, 3})
}

func TestSGD(t *testing.T) {
	o := SGD{LR: 0.1}
	param := []float32{1}
	o.Update(param, []float32{2})
	if math.Abs(float64(param[0]-0.8)) > 1e-6 {
		t.Fatalf("param = %v, want 0.8", param[0])
	}
}

func TestRowAdagradConvergesOnQuadratic(t *testing.T) {
	// Minimise (x-3)² with row Adagrad; must approach 3.
	o := NewRowAdagrad(0.5)
	param := []float32{0}
	var acc float32
	for i := 0; i < 500; i++ {
		g := 2 * (param[0] - 3)
		updateRow(o, param, []float32{g}, &acc)
	}
	if math.Abs(float64(param[0]-3)) > 0.05 {
		t.Fatalf("converged to %v, want 3", param[0])
	}
}

// TestRowAdagradAgainstFloat64 holds Update to a float64 reference within the
// kernels' γ_d bound, over dimensions that put the leaves' 8-lane blocks,
// their tails and the two-block unroll on the path. It runs on whichever
// kernel path the machine has; CI runs it under GOARCH=386 for the other.
func TestRowAdagradAgainstFloat64(t *testing.T) {
	const u = 1.0 / (1 << 24)
	for _, d := range []int{1, 7, 64, 100, 128} {
		gamma := float64(d) * u / (1 - float64(d)*u)
		o := NewRowAdagrad(0.1)
		param, grad := make([]float32, d), make([]float32, d)
		for i := range param {
			param[i] = float32(math.Sin(float64(3*i + d)))
			grad[i] = float32(math.Cos(float64(7*i+d))) * 0.3
		}
		acc := float32(0.25)
		var ss float64
		for _, g := range grad {
			ss += float64(g) * float64(g)
		}
		wantAcc := float64(acc) + ss/float64(d)
		step := float64(o.LR) / (math.Sqrt(wantAcc) + float64(o.Eps))
		want := make([]float64, d)
		for i := range want {
			want[i] = float64(param[i]) - step*float64(grad[i])
		}
		updateRow(o, param, grad, &acc)
		if math.Abs(float64(acc)-wantAcc) > (gamma+4*u)*wantAcc {
			t.Errorf("d=%d: acc = %v, float64 reference %v", d, acc, wantAcc)
		}
		for i := range want {
			if bound := (gamma + 8*u) * (math.Abs(want[i]) + math.Abs(step*float64(grad[i]))); math.Abs(float64(param[i])-want[i]) > bound {
				t.Errorf("d=%d: param[%d] = %v, float64 reference %v (bound %v)", d, i, param[i], want[i], bound)
			}
		}
	}
}

// A zero gradient must leave the row and its accumulator untouched bit for
// bit — including a −0 and a NaN already in the row.
func TestRowAdagradZeroGradBitwiseNoop(t *testing.T) {
	param := []float32{float32(math.Copysign(0, -1)), float32(math.NaN()), 3, 1e-40}
	before := make([]uint32, len(param))
	for i, p := range param {
		before[i] = math.Float32bits(p)
	}
	acc := float32(1e-30)
	updateRow(NewRowAdagrad(0.1), param, make([]float32, len(param)), &acc)
	for i, p := range param {
		if math.Float32bits(p) != before[i] {
			t.Errorf("param[%d] changed from %#x to %#x under a zero gradient", i, before[i], math.Float32bits(p))
		}
	}
	if acc != 1e-30 {
		t.Errorf("acc = %v, want it untouched", acc)
	}
}

// rowChain is the per-row Dot → scalar → Axpy chain Update's block leaf
// replaced, one call per listed row: what it must equal bit for bit, and what
// BenchmarkRowAdagrad times it against.
func rowChain(o RowAdagrad, embs, acc []float32, ids []int32, first int32, g vec.Matrix) {
	d := g.Cols
	for k, id := range ids {
		r, gk := int(id-first), g.Row(k)
		ss := vec.Dot(gk, gk)
		if ss == 0 {
			continue
		}
		acc[r] += ss / float32(d)
		step := o.LR / (float32(math.Sqrt(float64(acc[r]))) + o.Eps)
		vec.Axpy(-step, gk, embs[r*d:(r+1)*d])
	}
}

// adagradBlock is a table of rows×d floats whose ids start at first, and n
// gradient rows listing random rows of it: a trainer's block.
func adagradBlock(seed uint64, rows, d, n int, first int32) (embs, acc []float32, ids []int32, g vec.Matrix) {
	r := rng.New(seed)
	embs, acc, ids, g = make([]float32, rows*d), make([]float32, rows), make([]int32, n), vec.NewMatrix(n, d)
	for i := range embs {
		embs[i] = r.NormFloat32()
	}
	for i := range acc {
		acc[i] = r.Float32()
	}
	for k := range ids {
		ids[k] = first + int32(r.Intn(rows))
	}
	for i := range g.Data {
		g.Data[i] = 0.1 * r.NormFloat32()
	}
	return embs, acc, ids, g
}

// TestRowAdagradBlockMatchesRowChain holds Update over a whole block to the
// per-row chain bit for bit, on blocks that list rows more than once (the
// second step reads the first one's row and accumulator) and include an
// all-zero gradient row, at the dimensions of the kernel leaves' tails and
// blocks. It runs on whichever kernel path the machine has; CI runs it under
// GOARCH=386 for the other.
func TestRowAdagradBlockMatchesRowChain(t *testing.T) {
	o := NewRowAdagrad(0.1)
	for _, d := range []int{0, 1, 7, 8, 9, 64, 100, 128} {
		embs, acc, ids, g := adagradBlock(uint64(d), 5, d, 40, 1000)
		vec.Zero(g.Row(3))
		wantE, wantA := append([]float32(nil), embs...), append([]float32(nil), acc...)
		o.Update(embs, acc, ids, 1000, g)
		rowChain(o, wantE, wantA, ids, 1000, g)
		for i := range embs {
			if math.Float32bits(embs[i]) != math.Float32bits(wantE[i]) {
				t.Fatalf("d=%d: float %d = %v, per-row chain %v", d, i, embs[i], wantE[i])
			}
		}
		for i := range acc {
			if math.Float32bits(acc[i]) != math.Float32bits(wantA[i]) {
				t.Fatalf("d=%d: accumulator %d = %v, per-row chain %v", d, i, acc[i], wantA[i])
			}
		}
	}
}

// BenchmarkRowAdagrad times the row update at the trainer's block shapes,
// per listed row: blocks of 50 rows of a 6 000 × 64 shard (kg_mem's chunk
// side) and of 10 rows of a 3 000 × 128 shard (social_ooc's), as one Update
// call per block and as the per-row chain it replaced. Each op walks on to
// the next of 64 blocks, so rows come from across the shard. The path is the
// machine's kernel path; GOARCH=386 runs the portable one.
func BenchmarkRowAdagrad(b *testing.B) {
	for _, s := range []struct {
		name       string
		rows, d, n int
	}{{"kg_mem_50of6000x64", 6000, 64, 50}, {"social_ooc_10of3000x128", 3000, 128, 10}} {
		o := NewRowAdagrad(0.1)
		embs, acc, _, _ := adagradBlock(1, s.rows, s.d, 0, 0)
		const blocks = 64
		var ids [blocks][]int32
		var gs [blocks]vec.Matrix
		for i := range ids {
			_, _, ids[i], gs[i] = adagradBlock(uint64(2+i), s.rows, s.d, s.n, 0)
		}
		for _, way := range []struct {
			name   string
			update func(embs, acc []float32, ids []int32, first int32, g vec.Matrix)
		}{{"block", o.Update}, {"row_chain", func(embs, acc []float32, ids []int32, first int32, g vec.Matrix) {
			rowChain(o, embs, acc, ids, first, g)
		}}} {
			b.Run(s.name+"/"+way.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					way.update(embs, acc, ids[i%blocks], 0, gs[i%blocks])
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*s.n), "ns/row")
			})
		}
	}
}
