package bench

import (
	"testing"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// separableData builds a trivially separable multi-class problem: class c
// has mean vector e_c scaled by 3.
func separableData(n, classes, dim int, seed uint64) (vec.Matrix, [][]int) {
	r := rng.New(seed)
	x := vec.NewMatrix(n, dim)
	y := make([][]int, n)
	for i := 0; i < n; i++ {
		c := r.Intn(classes)
		y[i] = []int{c}
		for k := 0; k < dim; k++ {
			x.Row(i)[k] = r.NormFloat32() * 0.3
		}
		x.Row(i)[c%dim] += 3
	}
	return x, y
}

func TestTrainSeparable(t *testing.T) {
	x, y := separableData(500, 4, 8, 1)
	m, err := Train(x, y, Config{Classes: 4, Epochs: 20, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := m.EvaluateTopK(x, y)
	if res.MicroF1 < 0.95 {
		t.Fatalf("micro-F1 %.3f on separable data", res.MicroF1)
	}
	if res.MacroF1 < 0.9 {
		t.Fatalf("macro-F1 %.3f on separable data", res.MacroF1)
	}
}

func TestMultiLabelTopK(t *testing.T) {
	// Nodes with two labels must get two predictions under the oracle-k
	// protocol.
	x := vec.NewMatrix(4, 4)
	y := [][]int{{0, 1}, {0}, {1}, {0, 1}}
	for i := range y {
		for _, l := range y[i] {
			x.Row(i)[l] = 2
		}
	}
	m, err := Train(x, y, Config{Classes: 2, Epochs: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	pred := m.PredictTopK(x.Row(0), 2)
	if len(pred) != 2 {
		t.Fatalf("PredictTopK returned %d classes", len(pred))
	}
	res := m.EvaluateTopK(x, y)
	if res.MicroF1 < 0.9 {
		t.Fatalf("multi-label micro-F1 %.3f", res.MicroF1)
	}
}

func TestEvaluateRandomIsPoor(t *testing.T) {
	x, y := separableData(300, 6, 8, 4)
	// Untrained model ranks arbitrarily.
	m := &Model{Classes: 6, Dim: 8, W: vec.NewMatrix(6, 9)}
	res := m.EvaluateTopK(x, y)
	if res.MicroF1 > 0.5 {
		t.Fatalf("untrained model micro-F1 %.3f suspiciously high", res.MicroF1)
	}
}

func TestCrossValidate(t *testing.T) {
	x, y := separableData(400, 4, 8, 5)
	res, err := CrossValidate(x, y, Config{Classes: 4, Epochs: 15, Seed: 6}, 3, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if res.MicroF1 < 0.9 {
		t.Fatalf("CV micro-F1 %.3f", res.MicroF1)
	}
}

func TestTrainValidation(t *testing.T) {
	x := vec.NewMatrix(2, 3)
	if _, err := Train(x, [][]int{{0}}, Config{Classes: 2}); err == nil {
		t.Fatal("expected row-count error")
	}
	if _, err := Train(x, [][]int{{0}, {5}}, Config{Classes: 2}); err == nil {
		t.Fatal("expected label-range error")
	}
	if _, err := Train(x, [][]int{{0}, {1}}, Config{Classes: 0}); err == nil {
		t.Fatal("expected class-count error")
	}
	if _, err := CrossValidate(x, [][]int{{0}, {1}}, Config{Classes: 2}, 1, 0.9); err == nil {
		t.Fatal("expected repeats error")
	}
}

func TestPredictTopKBounds(t *testing.T) {
	m := &Model{Classes: 3, Dim: 2, W: vec.NewMatrix(3, 3)}
	pred := m.PredictTopK([]float32{1, 1}, 10)
	if len(pred) != 3 {
		t.Fatalf("k clamped wrong: %d", len(pred))
	}
}

func TestF1Helper(t *testing.T) {
	if f1(0, 5, 5) != 0 {
		t.Fatal("zero TP should give 0")
	}
	if got := f1(10, 0, 0); got != 1 {
		t.Fatalf("perfect f1 = %v", got)
	}
}
