package bench

// The two published systems the paper compares against in Table 1:
// DeepWalk (Perozzi et al. 2014, this file) and MILE (Liang et al. 2018,
// mile_test.go). Both are reimplemented from their papers so they run under
// the identical evaluation protocol as PBG.

import (
	"fmt"
	"math"
	"sync"

	"pbg/internal/graph"
	"pbg/internal/optim"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

// Adjacency is a CSR view of an undirected version of the graph, used for
// random walks and refinement smoothing.
type Adjacency struct {
	Offsets   []int32
	Neighbors []int32
	Weights   []float32 // parallel to Neighbors
	N         int
}

// BuildAdjacency symmetrises the edge list of a single-entity-type graph.
func BuildAdjacency(g *graph.Graph) *Adjacency {
	n := g.Schema.Entities[0].Count
	deg := make([]int32, n+1)
	m := g.Edges.Len()
	for i := 0; i < m; i++ {
		s, _, d := g.Edges.Edge(i)
		deg[s+1]++
		deg[d+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	adj := &Adjacency{Offsets: deg, Neighbors: make([]int32, 2*m), Weights: make([]float32, 2*m), N: n}
	cursor := make([]int32, n)
	for i := 0; i < m; i++ {
		s, _, d := g.Edges.Edge(i)
		adj.Neighbors[adj.Offsets[s]+cursor[s]] = d
		adj.Weights[adj.Offsets[s]+cursor[s]] = 1
		cursor[s]++
		adj.Neighbors[adj.Offsets[d]+cursor[d]] = s
		adj.Weights[adj.Offsets[d]+cursor[d]] = 1
		cursor[d]++
	}
	return adj
}

// Degree returns the number of neighbours of v.
func (a *Adjacency) Degree(v int32) int {
	return int(a.Offsets[v+1] - a.Offsets[v])
}

// Neigh returns the neighbour slice of v.
func (a *Adjacency) Neigh(v int32) []int32 {
	return a.Neighbors[a.Offsets[v]:a.Offsets[v+1]]
}

// NeighWeights returns the edge weights parallel to Neigh(v).
func (a *Adjacency) NeighWeights(v int32) []float32 {
	return a.Weights[a.Offsets[v]:a.Offsets[v+1]]
}

// DeepWalkConfig holds the hyperparameters from Perozzi et al. 2014 /
// word2vec.
type DeepWalkConfig struct {
	Dim       int
	WalksPer  int // γ: walks per node per epoch
	WalkLen   int // t: walk length
	Window    int // w: skip-gram window
	Negatives int // k: negative samples per positive
	LR        float32
	Epochs    int
	Workers   int
	Seed      uint64
	// UnigramPower is the negative-sampling distribution exponent (0.75 in
	// word2vec).
	UnigramPower float64
}

func (c DeepWalkConfig) withDefaults() DeepWalkConfig {
	if c.WalksPer == 0 {
		c.WalksPer = 10
	}
	if c.WalkLen == 0 {
		c.WalkLen = 40
	}
	if c.Window == 0 {
		c.Window = 5
	}
	if c.Negatives == 0 {
		c.Negatives = 5
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Epochs == 0 {
		c.Epochs = 1
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.UnigramPower == 0 {
		c.UnigramPower = 0.75
	}
	return c
}

// DeepWalkModel holds the trained embeddings (input vectors, as in
// word2vec) plus the context table.
type DeepWalkModel struct {
	Dim int
	In  vec.Matrix
	Out vec.Matrix
}

// TrainDeepWalk runs random walks + skip-gram with negative sampling over
// the undirected view of g.
func TrainDeepWalk(g *graph.Graph, cfg DeepWalkConfig) (*DeepWalkModel, error) {
	cfg = cfg.withDefaults()
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("baselines: DeepWalk needs Dim > 0")
	}
	if len(g.Schema.Entities) != 1 {
		return nil, fmt.Errorf("baselines: DeepWalk supports single-entity-type graphs")
	}
	adj := BuildAdjacency(g)
	n := adj.N
	r := rng.New(cfg.Seed)
	m := &DeepWalkModel{Dim: cfg.Dim, In: vec.NewMatrix(n, cfg.Dim), Out: vec.NewMatrix(n, cfg.Dim)}
	std := 1 / float32(math.Sqrt(float64(cfg.Dim)))
	for i := range m.In.Data {
		m.In.Data[i] = r.NormFloat32() * std
	}
	// Out starts at zero, as in word2vec.

	// Negative sampling ∝ degree^0.75.
	w := make([]float64, n)
	for v := 0; v < n; v++ {
		w[v] = math.Pow(float64(adj.Degree(int32(v))), cfg.UnigramPower)
	}
	negAlias := rng.NewAlias(w)

	inAcc := make([]float32, n)
	outAcc := make([]float32, n)
	opt := optim.NewRowAdagrad(cfg.LR)

	for e := 0; e < cfg.Epochs; e++ {
		var wg sync.WaitGroup
		for wk := 0; wk < cfg.Workers; wk++ {
			wg.Add(1)
			go func(wk int, wr *rng.RNG) {
				defer wg.Done()
				walk := make([]int32, cfg.WalkLen)
				gradC := make([]float32, cfg.Dim)
				gradX := make([]float32, cfg.Dim)
				// step is the row optimizer over a one-row block: row id of
				// table and its accumulator take grad's step.
				var one [1]int32
				step := func(table vec.Matrix, acc []float32, id int32, grad []float32) {
					one[0] = id
					opt.Update(table.Data, acc, one[:], 0, vec.MatrixFrom(grad, 1, len(grad)))
				}
				lo := wk * n / cfg.Workers
				hi := (wk + 1) * n / cfg.Workers
				for start := lo; start < hi; start++ {
					if adj.Degree(int32(start)) == 0 {
						continue
					}
					for wn := 0; wn < cfg.WalksPer; wn++ {
						// Generate one walk.
						v := int32(start)
						length := 0
						for length < cfg.WalkLen {
							walk[length] = v
							length++
							nb := adj.Neigh(v)
							if len(nb) == 0 {
								break
							}
							v = nb[wr.Intn(len(nb))]
						}
						// Skip-gram over the walk.
						for i := 0; i < length; i++ {
							c := walk[i]
							win := 1 + wr.Intn(cfg.Window)
							for j := i - win; j <= i+win; j++ {
								if j < 0 || j >= length || j == i {
									continue
								}
								x := walk[j]
								// Positive pair + k negatives.
								vec.Zero(gradC)
								for neg := -1; neg < cfg.Negatives; neg++ {
									var target int32
									var label float32
									if neg < 0 {
										target, label = x, 1
									} else {
										target, label = int32(negAlias.Sample(wr)), 0
										if target == x {
											continue
										}
									}
									ci := m.In.Row(int(c))
									co := m.Out.Row(int(target))
									s := vec.Dot(ci, co)
									gr := vec.Sigmoid(s) - label
									for k2 := 0; k2 < cfg.Dim; k2++ {
										gradC[k2] += gr * co[k2]
										gradX[k2] = gr * ci[k2]
									}
									step(m.Out, outAcc, target, gradX)
								}
								step(m.In, inAcc, c, gradC)
							}
						}
					}
				}
			}(wk, r.Split())
		}
		wg.Wait()
	}
	return m, nil
}

// MemoryBytes reports the model's table sizes (for Table 1's memory column).
func (m *DeepWalkModel) MemoryBytes() int64 {
	return int64(len(m.In.Data)+len(m.Out.Data)) * 4
}
