package bench

// The downstream evaluation of §5.3: node embeddings are used as features
// for a one-vs-rest logistic regression that predicts multi-label node
// categories (the YouTube task), scored with micro- and macro-F1 under the
// standard protocol of Perozzi et al. 2014 — for each test node, the top-kᵢ
// classes are predicted, where kᵢ is the node's true label count.

import (
	"fmt"
	"sort"

	"pbg/internal/optim"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

// Config for the one-vs-rest trainer.
type Config struct {
	Classes int
	Epochs  int
	LR      float32
	// L2 regularisation strength.
	L2   float32
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.LR == 0 {
		c.LR = 0.5
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	return c
}

// Model is a set of per-class logistic regressors (weights + bias).
type Model struct {
	Classes int
	Dim     int
	// W is Classes×(Dim+1); the last column is the bias.
	W vec.Matrix
}

// Train fits one-vs-rest logistic regression on features X (n×d) and
// multi-labels Y (Y[i] lists class IDs of example i).
func Train(x vec.Matrix, y [][]int, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("classify: Classes must be positive")
	}
	if x.Rows != len(y) {
		return nil, fmt.Errorf("classify: %d feature rows but %d label rows", x.Rows, len(y))
	}
	d := x.Cols
	m := &Model{Classes: cfg.Classes, Dim: d, W: vec.NewMatrix(cfg.Classes, d+1)}
	// Dense label matrix as bitsets for O(1) membership.
	isLabel := make([]map[int]bool, len(y))
	for i, ls := range y {
		isLabel[i] = make(map[int]bool, len(ls))
		for _, l := range ls {
			if l < 0 || l >= cfg.Classes {
				return nil, fmt.Errorf("classify: label %d out of range", l)
			}
			isLabel[i][l] = true
		}
	}
	r := rng.New(cfg.Seed)
	order := make([]int, x.Rows)
	opt := make([]*optim.DenseAdagrad, cfg.Classes)
	for c := range opt {
		opt[c] = optim.NewDenseAdagrad(cfg.LR, d+1)
	}
	grad := make([]float32, d+1)
	for e := 0; e < cfg.Epochs; e++ {
		r.Perm(order)
		for _, i := range order {
			xi := x.Row(i)
			for c := 0; c < cfg.Classes; c++ {
				w := m.W.Row(c)
				s := vec.Dot(w[:d], xi) + w[d]
				var label float32
				if isLabel[i][c] {
					label = 1
				}
				g := vec.Sigmoid(s) - label
				for k := 0; k < d; k++ {
					grad[k] = g*xi[k] + cfg.L2*w[k]
				}
				grad[d] = g
				opt[c].Update(w, grad)
			}
		}
	}
	return m, nil
}

// Scores returns the raw per-class logits for one feature vector.
func (m *Model) Scores(xi []float32, out []float32) {
	d := m.Dim
	for c := 0; c < m.Classes; c++ {
		w := m.W.Row(c)
		out[c] = vec.Dot(w[:d], xi) + w[d]
	}
}

// PredictTopK returns the k highest-scoring classes for xi (the
// label-count-oracle protocol used by DeepWalk/MILE evaluations).
func (m *Model) PredictTopK(xi []float32, k int) []int {
	scores := make([]float32, m.Classes)
	m.Scores(xi, scores)
	idx := make([]int, m.Classes)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// F1Result carries both averaging modes of the F1 score.
type F1Result struct {
	MicroF1 float64
	MacroF1 float64
}

// EvaluateTopK predicts top-kᵢ labels for every row of x and compares with
// the ground truth, returning micro/macro F1.
func (m *Model) EvaluateTopK(x vec.Matrix, y [][]int) F1Result {
	classTP := make([]float64, m.Classes)
	classFP := make([]float64, m.Classes)
	classFN := make([]float64, m.Classes)
	for i := 0; i < x.Rows; i++ {
		truth := map[int]bool{}
		for _, l := range y[i] {
			truth[l] = true
		}
		pred := m.PredictTopK(x.Row(i), len(y[i]))
		predSet := map[int]bool{}
		for _, p := range pred {
			predSet[p] = true
			if truth[p] {
				classTP[p]++
			} else {
				classFP[p]++
			}
		}
		for l := range truth {
			if !predSet[l] {
				classFN[l]++
			}
		}
	}
	var tp, fp, fn float64
	var macro float64
	activeClasses := 0
	for c := 0; c < m.Classes; c++ {
		tp += classTP[c]
		fp += classFP[c]
		fn += classFN[c]
		if classTP[c]+classFP[c]+classFN[c] > 0 {
			macro += f1(classTP[c], classFP[c], classFN[c])
			activeClasses++
		}
	}
	out := F1Result{MicroF1: f1(tp, fp, fn)}
	if activeClasses > 0 {
		out.MacroF1 = macro / float64(activeClasses)
	}
	return out
}

func f1(tp, fp, fn float64) float64 {
	if tp == 0 {
		return 0
	}
	precision := tp / (tp + fp)
	recall := tp / (tp + fn)
	return 2 * precision * recall / (precision + recall)
}

// CrossValidate averages micro/macro F1 over repeats independent random
// splits, each training on trainFrac of the rows and testing on the rest.
// This is DeepWalk's protocol, which the paper follows (10 splits at 90%);
// it is not k-fold — every split re-permutes all rows, so test sets overlap.
func CrossValidate(x vec.Matrix, y [][]int, cfg Config, repeats int, trainFrac float64) (F1Result, error) {
	if repeats < 2 {
		return F1Result{}, fmt.Errorf("classify: need ≥ 2 repeats")
	}
	n := x.Rows
	r := rng.New(cfg.Seed ^ 0xF01D)
	var sum F1Result
	for rep := 0; rep < repeats; rep++ {
		perm := make([]int, n)
		r.Perm(perm)
		nTrain := int(trainFrac * float64(n))
		trainX := vec.NewMatrix(nTrain, x.Cols)
		trainY := make([][]int, nTrain)
		for i := 0; i < nTrain; i++ {
			copy(trainX.Row(i), x.Row(perm[i]))
			trainY[i] = y[perm[i]]
		}
		testX := vec.NewMatrix(n-nTrain, x.Cols)
		testY := make([][]int, n-nTrain)
		for i := nTrain; i < n; i++ {
			copy(testX.Row(i-nTrain), x.Row(perm[i]))
			testY[i-nTrain] = y[perm[i]]
		}
		m, err := Train(trainX, trainY, cfg)
		if err != nil {
			return F1Result{}, err
		}
		res := m.EvaluateTopK(testX, testY)
		sum.MicroF1 += res.MicroF1
		sum.MacroF1 += res.MacroF1
	}
	sum.MicroF1 /= float64(repeats)
	sum.MacroF1 /= float64(repeats)
	return sum, nil
}
