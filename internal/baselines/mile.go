package baselines

import (
	"cmp"
	"fmt"
	"slices"

	"pbg/internal/graph"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

// MILE (Liang et al. 2018) embeds large graphs by (1) repeatedly coarsening
// the graph with heavy-edge matching, (2) embedding the coarsest graph with
// a base method (DeepWalk here, as in the paper), and (3) refining the
// embeddings back up the hierarchy.
//
// Substitution note: the published MILE refines with a graph convolutional
// network trained to reconstruct the coarse embeddings. This implementation
// refines by projection + degree-normalised neighbourhood smoothing, which
// preserves the method's shape (quality degrades as levels increase, memory
// shrinks) without a neural-network training loop; the paper's Table 1 MILE
// rows show exactly that qualitative pattern.
type MILEConfig struct {
	// Levels of coarsening (the paper sweeps 1–8).
	Levels int
	// Base configures the DeepWalk run on the coarsest graph.
	Base DeepWalkConfig
	// SmoothRounds per refinement level.
	SmoothRounds int
	// SmoothBeta blends neighbour means into each node (0..1).
	SmoothBeta float32
	Seed       uint64
}

func (c MILEConfig) withDefaults() MILEConfig {
	if c.Levels == 0 {
		c.Levels = 2
	}
	if c.SmoothRounds == 0 {
		c.SmoothRounds = 2
	}
	if c.SmoothBeta == 0 {
		c.SmoothBeta = 0.5
	}
	return c
}

// coarseGraph is one level of the hierarchy.
type coarseGraph struct {
	adj *Adjacency
	// match[v] = supernode index at the next-coarser level.
	match []int32
	n     int
}

// MILEModel holds the refined embeddings for the original graph.
type MILEModel struct {
	Dim int
	Emb vec.Matrix
	// CoarsestNodes reports the size of the graph the base embedding ran
	// on (the memory-saving knob of the method).
	CoarsestNodes int
}

// TrainMILE runs the full coarsen → embed → refine pipeline.
func TrainMILE(g *graph.Graph, cfg MILEConfig) (*MILEModel, error) {
	cfg = cfg.withDefaults()
	if cfg.Base.Dim <= 0 {
		return nil, fmt.Errorf("baselines: MILE needs Base.Dim > 0")
	}
	if len(g.Schema.Entities) != 1 {
		return nil, fmt.Errorf("baselines: MILE supports single-entity-type graphs")
	}
	r := rng.New(cfg.Seed)

	// ---- Coarsening phase: heavy-edge matching ----
	levels := []*coarseGraph{{adj: BuildAdjacency(g), n: g.Schema.Entities[0].Count}}
	for l := 0; l < cfg.Levels; l++ {
		cur := levels[len(levels)-1]
		matched, coarseN := heavyEdgeMatch(cur.adj, r)
		cur.match = matched
		if coarseN >= cur.n {
			break // no further coarsening possible
		}
		coarse := buildCoarse(cur.adj, matched, coarseN)
		levels = append(levels, &coarseGraph{adj: coarse, n: coarseN})
	}

	// ---- Base embedding on the coarsest graph ----
	coarsest := levels[len(levels)-1]
	baseCfg := cfg.Base
	baseCfg.Seed = cfg.Seed ^ 0xD1CE
	baseG := adjacencyToGraph(coarsest.adj)
	baseModel, err := TrainDeepWalk(baseG, baseCfg)
	if err != nil {
		return nil, err
	}
	emb := baseModel.In

	// ---- Refinement phase: project + smooth back down the hierarchy ----
	for l := len(levels) - 2; l >= 0; l-- {
		fine := levels[l]
		fineEmb := vec.NewMatrix(fine.n, cfg.Base.Dim)
		for v := 0; v < fine.n; v++ {
			copy(fineEmb.Row(v), emb.Row(int(fine.match[v])))
		}
		smooth(fine.adj, fineEmb, cfg.SmoothRounds, cfg.SmoothBeta)
		emb = fineEmb
	}
	return &MILEModel{Dim: cfg.Base.Dim, Emb: emb, CoarsestNodes: coarsest.n}, nil
}

// heavyEdgeMatch greedily matches each unmatched node with its
// heaviest-edge unmatched neighbour; unmatched leftovers become singleton
// supernodes. Returns the fine→coarse map and the coarse node count.
func heavyEdgeMatch(adj *Adjacency, r *rng.RNG) ([]int32, int) {
	n := adj.N
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	// Visit nodes in random order for matching fairness.
	order := make([]int, n)
	r.Perm(order)
	next := int32(0)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		// Find the heaviest unmatched neighbour.
		var best int32 = -1
		var bestW float32 = -1
		nb := adj.Neigh(v)
		ws := adj.NeighWeights(v)
		for k, u := range nb {
			if u != v && match[u] < 0 && ws[k] > bestW {
				best, bestW = u, ws[k]
			}
		}
		match[v] = next
		if best >= 0 {
			match[best] = next
		}
		next++
	}
	return match, int(next)
}

// buildCoarse aggregates the fine adjacency through the matching, summing
// parallel edge weights and dropping supernode self-loops. Edges are laid
// out in sorted (a, b) order: neighbour order feeds the base embedder's
// walks and the next level's matching, so it must not follow map order.
func buildCoarse(adj *Adjacency, match []int32, coarseN int) *Adjacency {
	type edge struct{ a, b int32 }
	agg := map[edge]float32{}
	for v := 0; v < adj.N; v++ {
		cv := match[v]
		nb := adj.Neigh(int32(v))
		ws := adj.NeighWeights(int32(v))
		for k, u := range nb {
			cu := match[u]
			if cu == cv {
				continue
			}
			// Count each undirected pair once (from the lower endpoint).
			if cv < cu {
				agg[edge{cv, cu}] += ws[k]
			}
		}
	}
	edges := make([]edge, 0, len(agg))
	deg := make([]int32, coarseN+1)
	for e := range agg {
		edges = append(edges, e)
		deg[e.a+1]++
		deg[e.b+1]++
	}
	slices.SortFunc(edges, func(x, y edge) int {
		return cmp.Or(cmp.Compare(x.a, y.a), cmp.Compare(x.b, y.b))
	})
	for i := 1; i <= coarseN; i++ {
		deg[i] += deg[i-1]
	}
	total := 2 * len(edges)
	out := &Adjacency{Offsets: deg, Neighbors: make([]int32, total), Weights: make([]float32, total), N: coarseN}
	cursor := make([]int32, coarseN)
	for _, e := range edges {
		w := agg[e]
		out.Neighbors[out.Offsets[e.a]+cursor[e.a]] = e.b
		out.Weights[out.Offsets[e.a]+cursor[e.a]] = w
		cursor[e.a]++
		out.Neighbors[out.Offsets[e.b]+cursor[e.b]] = e.a
		out.Weights[out.Offsets[e.b]+cursor[e.b]] = w
		cursor[e.b]++
	}
	return out
}

// adjacencyToGraph converts a coarse adjacency back into a graph.Graph so
// the base embedder can run on it (each undirected edge appears once).
func adjacencyToGraph(adj *Adjacency) *graph.Graph {
	el := &graph.EdgeList{}
	for v := int32(0); int(v) < adj.N; v++ {
		for _, u := range adj.Neigh(v) {
			if v < u {
				el.Append(v, 0, u)
			}
		}
	}
	n := adj.N
	if n == 0 {
		n = 1
	}
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: n, NumPartitions: 1}},
		[]graph.RelationType{{Name: "e", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	return graph.MustGraph(schema, el)
}

// smooth runs degree-normalised neighbourhood averaging:
// x_v ← (1−β)·x_v + β·Σ_u w_vu·x_u / Σ_u w_vu, then renormalises rows.
func smooth(adj *Adjacency, emb vec.Matrix, rounds int, beta float32) {
	d := emb.Cols
	next := vec.NewMatrix(emb.Rows, d)
	for round := 0; round < rounds; round++ {
		for v := 0; v < adj.N; v++ {
			nb := adj.Neigh(int32(v))
			ws := adj.NeighWeights(int32(v))
			row := next.Row(v)
			copy(row, emb.Row(v))
			if len(nb) == 0 {
				continue
			}
			var totalW float32
			mean := make([]float32, d)
			for k, u := range nb {
				vec.Axpy(ws[k], emb.Row(int(u)), mean)
				totalW += ws[k]
			}
			if totalW > 0 {
				for k2 := 0; k2 < d; k2++ {
					row[k2] = (1-beta)*row[k2] + beta*mean[k2]/totalW
				}
			}
		}
		copy(emb.Data, next.Data)
	}
	// Renormalise so cosine scoring stays scale-free.
	for v := 0; v < emb.Rows; v++ {
		vec.Normalize(emb.Row(v))
	}
}

// MemoryBytes reports the final table plus the base model's share — the
// quantity MILE economises by embedding only the coarsest graph.
func (m *MILEModel) MemoryBytes() int64 {
	base := int64(m.CoarsestNodes) * int64(m.Dim) * 4 * 2 // in+out tables
	return int64(len(m.Emb.Data))*4 + base
}
