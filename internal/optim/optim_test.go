package optim

import (
	"fmt"
	"math"
	"testing"
)

func TestRowAdagradFirstStep(t *testing.T) {
	o := NewRowAdagrad(0.1)
	param := []float32{1, 1}
	grad := []float32{1, -1}
	var acc float32
	o.Update(param, grad, &acc)
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
		o.Update(param, []float32{1}, &acc)
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
	o.Update(param, []float32{0, 0}, &acc)
	if param[0] != 3 || param[1] != 4 || acc != 2 {
		t.Fatal("zero gradient must not change state")
	}
}

func TestRowAdagradAccumulatorIsMeanSquare(t *testing.T) {
	o := NewRowAdagrad(1)
	param := make([]float32, 4)
	var acc float32
	o.Update(param, []float32{2, 2, 2, 2}, &acc)
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
		o.Update(param, []float32{g}, &acc)
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
		o.Update(param, grad, &acc)
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
	NewRowAdagrad(0.1).Update(param, make([]float32, len(param)), &acc)
	for i, p := range param {
		if math.Float32bits(p) != before[i] {
			t.Errorf("param[%d] changed from %#x to %#x under a zero gradient", i, before[i], math.Float32bits(p))
		}
	}
	if acc != 1e-30 {
		t.Errorf("acc = %v, want it untouched", acc)
	}
}

func BenchmarkRowAdagrad(b *testing.B) {
	for _, d := range []int{64, 128} {
		b.Run(fmt.Sprint(d), func(b *testing.B) {
			o := NewRowAdagrad(0.1)
			param, grad := make([]float32, d), make([]float32, d)
			for i := range grad {
				grad[i] = float32(i%7) - 3
			}
			var acc float32
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o.Update(param, grad, &acc)
			}
		})
	}
}
