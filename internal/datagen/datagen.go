// Package datagen generates synthetic graphs standing in for the paper's
// datasets, which cannot be redistributed here (LiveJournal and Twitter from
// SNAP, YouTube from Tang & Liu, the Freebase dumps). Each generator
// preserves the structural properties PBG's design responds to:
//
//   - Social graphs (LiveJournal/Twitter-like): directed, heavy-tailed
//     degree distribution via preferential attachment, single relation.
//   - Community graphs (YouTube-like): overlapping community structure with
//     multi-label ground truth for the downstream classification task.
//   - Knowledge graphs (FB15k/Freebase-like): multi-relation edges generated
//     from a ground-truth latent-factor model with Zipf entity popularity,
//     so that embedding methods can actually recover structure.
//   - Bipartite graphs (the user×item motivation of §3.1): two entity types
//     with wildly unbalanced cardinalities.
//
// All generators are deterministic under their Seed.
package datagen

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pbg/internal/graph"
	"pbg/internal/rng"
	"pbg/internal/vec"
)

// SocialConfig parameterises a follow graph combining community structure
// (homophily — what embeddings actually learn) with preferential attachment
// inside each community (the heavy degree tail of real social graphs).
type SocialConfig struct {
	Nodes int
	// AvgOutDegree controls edges ≈ Nodes × AvgOutDegree.
	AvgOutDegree int
	// UniformFrac is the probability a target is chosen uniformly across the
	// whole graph instead of preferentially within the node's community;
	// >0 keeps some global noise, mirroring cross-community follows.
	UniformFrac float64
	// Communities is the number of latent communities; 0 picks ≈ Nodes/50.
	Communities int
	// NumPartitions for the single "node" entity type.
	NumPartitions int
	Seed          uint64
}

// Social generates a directed follow graph with heavy-tailed in-degrees and
// latent community structure (the LiveJournal / Twitter stand-in). Without
// homophily a synthetic graph has no signal beyond degree, which the paper's
// α-mixture negative sampling deliberately neutralises — so community
// structure is what makes the held-out link prediction task meaningful.
func Social(cfg SocialConfig) (*graph.Graph, error) {
	if cfg.Nodes < 2 || cfg.AvgOutDegree < 1 {
		return nil, fmt.Errorf("datagen: social config needs ≥2 nodes and ≥1 degree")
	}
	if cfg.NumPartitions <= 0 {
		cfg.NumPartitions = 1
	}
	if cfg.UniformFrac == 0 {
		cfg.UniformFrac = 0.1
	}
	if cfg.Communities <= 0 {
		cfg.Communities = cfg.Nodes / 50
		if cfg.Communities < 2 {
			cfg.Communities = 2
		}
	}
	r := rng.New(cfg.Seed)
	// Random relabeling so contiguous-block partitioning equals uniform
	// assignment (§5.4.2 partitions "uniformly").
	relabel := make([]int, cfg.Nodes)
	r.Perm(relabel)

	// Zipf community sizes: a few huge groups, many tiny ones.
	comm := make([]int, cfg.Nodes)
	commZipf := rng.NewZipf(cfg.Communities, 1.1)
	members := make([][]int32, cfg.Communities)
	for v := 0; v < cfg.Nodes; v++ {
		c := commZipf.Sample(r)
		comm[v] = c
		members[c] = append(members[c], int32(v))
	}
	// Per-community Zipf popularity over members: the first members of each
	// community (an arbitrary subset of nodes) are its celebrities. This
	// produces a global heavy tail whose hubs sit inside communities, like
	// real follow graphs.
	popZipf := make([]*rng.Zipf, cfg.Communities)
	for c := range members {
		if len(members[c]) > 0 {
			popZipf[c] = rng.NewZipf(len(members[c]), 1.2)
		}
	}
	globalPop := rng.NewZipf(cfg.Nodes, 1.2)

	maxEdges := cfg.Nodes * cfg.AvgOutDegree
	el := &graph.EdgeList{
		Srcs: make([]int32, 0, maxEdges),
		Rels: make([]int32, 0, maxEdges),
		Dsts: make([]int32, 0, maxEdges),
	}
	// followedBy[t] is 1 + the last source that accepted target t. Sources
	// come one at a time, so a repeat of (v, t) can only be a target v itself
	// accepted, which is exactly followedBy[t] == v+1.
	followedBy := make([]int32, cfg.Nodes)
	for v := 0; v < cfg.Nodes; v++ {
		c := comm[v]
		for k := 0; k < cfg.AvgOutDegree; k++ {
			var target int32
			if r.Float64() < cfg.UniformFrac || len(members[c]) < 2 {
				// Cross-community follow, still popularity-biased.
				target = int32(globalPop.Sample(r))
			} else {
				target = members[c][popZipf[c].Sample(r)]
			}
			if target == int32(v) {
				continue
			}
			if followedBy[target] == int32(v)+1 {
				continue
			}
			followedBy[target] = int32(v) + 1
			el.Append(int32(relabel[v]), 0, int32(relabel[target]))
		}
	}
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: cfg.Nodes, NumPartitions: cfg.NumPartitions}},
		[]graph.RelationType{{Name: "follows", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	return graph.NewGraph(schema, el)
}

// CommunityConfig parameterises an overlapping-community graph with labels.
type CommunityConfig struct {
	Nodes       int
	Communities int
	// Edges to generate.
	Edges int
	// InFrac is the probability an edge stays within a community.
	InFrac float64
	// ExtraLabelProb is the chance a node carries each additional label
	// beyond its primary community (multi-label ground truth).
	ExtraLabelProb float64
	NumPartitions  int
	Seed           uint64
}

// CommunityGraph is the YouTube stand-in: a social graph with community
// structure plus per-node multi-label ground truth (group subscriptions).
type CommunityGraph struct {
	Graph *graph.Graph
	// Labels[node] lists the label IDs the node carries (≥1 each).
	Labels     [][]int
	NumClasses int
}

// Community generates the graph and labels.
func Community(cfg CommunityConfig) (*CommunityGraph, error) {
	if cfg.Nodes < cfg.Communities || cfg.Communities < 2 {
		return nil, fmt.Errorf("datagen: community config invalid")
	}
	if cfg.InFrac == 0 {
		cfg.InFrac = 0.85
	}
	if cfg.NumPartitions <= 0 {
		cfg.NumPartitions = 1
	}
	r := rng.New(cfg.Seed)
	primary := make([]int, cfg.Nodes)
	members := make([][]int32, cfg.Communities)
	// Zipf community sizes: a few big groups, many small, like real
	// subscription data.
	z := rng.NewZipf(cfg.Communities, 1.2)
	for v := 0; v < cfg.Nodes; v++ {
		c := z.Sample(r)
		primary[v] = c
		members[c] = append(members[c], int32(v))
	}
	// Every community needs at least one member for edge generation.
	for c := range members {
		if len(members[c]) == 0 {
			v := r.Intn(cfg.Nodes)
			members[c] = append(members[c], int32(v))
		}
	}
	labels := make([][]int, cfg.Nodes)
	for v := 0; v < cfg.Nodes; v++ {
		labels[v] = []int{primary[v]}
		for c := 0; c < cfg.Communities; c++ {
			if c != primary[v] && r.Float64() < cfg.ExtraLabelProb {
				labels[v] = append(labels[v], c)
			}
		}
	}
	el := &graph.EdgeList{}
	seen := make(map[int64]bool, cfg.Edges)
	for len(seen) < cfg.Edges {
		var s, d int32
		if r.Float64() < cfg.InFrac {
			c := primary[r.Intn(cfg.Nodes)] // community ∝ size
			m := members[c]
			s = m[r.Intn(len(m))]
			d = m[r.Intn(len(m))]
		} else {
			s = int32(r.Intn(cfg.Nodes))
			d = int32(r.Intn(cfg.Nodes))
		}
		if s == d {
			continue
		}
		key := int64(s)<<32 | int64(d)
		if seen[key] {
			continue
		}
		seen[key] = true
		el.Append(s, 0, d)
	}
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "user", Count: cfg.Nodes, NumPartitions: cfg.NumPartitions}},
		[]graph.RelationType{{Name: "contact", SourceType: "user", DestType: "user", Operator: "identity"}},
	)
	g, err := graph.NewGraph(schema, el)
	if err != nil {
		return nil, err
	}
	return &CommunityGraph{Graph: g, Labels: labels, NumClasses: cfg.Communities}, nil
}

// KGConfig parameterises a multi-relation knowledge graph generated from a
// ground-truth latent-factor model.
type KGConfig struct {
	Entities  int
	Relations int
	Edges     int
	// LatentDim is the dimension of the hidden ground-truth embeddings.
	LatentDim int
	// CandidatePool: destinations are chosen as the best-scoring of this
	// many uniformly drawn candidates; larger pools give cleaner
	// structure. Every attempt scores a whole pool, so generation costs
	// O(Edges × CandidatePool). The default pool, Entities/3, makes a
	// graph of fixed degree quadratic in Entities: `pbg import -synthetic
	// knowledge` at its defaults (10 000 entities, 200 000 edges, a pool
	// of 3 333) generates for about 16 s on a 2 vCPU Xeon VM.
	CandidatePool int
	// PopularityExponent shapes the Zipf head of entity usage.
	PopularityExponent float64
	NumPartitions      int
	Seed               uint64
}

func (c *KGConfig) defaults() {
	if c.LatentDim == 0 {
		c.LatentDim = 8
	}
	if c.CandidatePool == 0 {
		// The pool bounds how identifiable the destination is: an oracle
		// ranks the true destination around Entities/CandidatePool among
		// all entities, so small pools produce unlearnable graphs. Real
		// knowledge-graph relations are near-functional (capital_of has one
		// answer), which corresponds to a large pool.
		c.CandidatePool = c.Entities / 3
		if c.CandidatePool < 256 {
			c.CandidatePool = 256
		}
		if c.CandidatePool > c.Entities {
			c.CandidatePool = c.Entities
		}
	}
	if c.PopularityExponent == 0 {
		c.PopularityExponent = 1.1
	}
	if c.NumPartitions <= 0 {
		c.NumPartitions = 1
	}
}

// KGTruth is the generator's hidden model, exposed so tests can verify the
// graph is learnable: an oracle scoring with the truth ranks true edges
// near the top (TestKnowledgeOracleRanksTruth).
type KGTruth struct {
	Latent     vec.Matrix // Entities×k ground-truth embeddings
	RelW, RelT vec.Matrix // Relations×k diagonal transform and translation
	LogPop     []float32  // per-entity popularity boost
	Gamma      float32    // weight of the popularity term
}

// Score computes the generative score of an edge:
// ⟨z_s ⊙ w_r + t_r, z_d⟩ + γ·logpop_d, bit for bit the score the generator
// chose destinations by.
func (t *KGTruth) Score(s, rel, d int32) float32 {
	q := make([]float32, t.Latent.Cols)
	t.query(q, s, rel)
	var sc [1]float32
	t.scores(sc[:], q, []int32{d})
	return sc[0]
}

// query writes q = z_s ⊙ w_r + t_r, the side of the score every candidate
// destination of (s, rel) shares.
func (t *KGTruth) query(q []float32, s, rel int32) {
	zs := t.Latent.Row(int(s))
	w := t.RelW.Row(int(rel))
	tt := t.RelT.Row(int(rel))
	for i := range q {
		q[i] = zs[i]*w[i] + tt[i]
	}
}

// scores writes ⟨q, z_d⟩ + γ·logpop_d for each candidate d of ds into out,
// the products summed left to right in float32. Candidates are scored four
// at a time so that their four sums run as independent chains; a group
// past the end repeats the last candidate.
func (t *KGTruth) scores(out, q []float32, ds []int32) {
	k, last := len(q), len(ds)-1
	z, gamma, logPop := t.Latent.Data, t.Gamma, t.LogPop
	for c := 0; c <= last; c += 4 {
		c1, c2, c3 := min(c+1, last), min(c+2, last), min(c+3, last)
		d0, d1, d2, d3 := ds[c], ds[c1], ds[c2], ds[c3]
		z0 := z[int(d0)*k:][:k]
		z1 := z[int(d1)*k:][:k]
		z2 := z[int(d2)*k:][:k]
		z3 := z[int(d3)*k:][:k]
		var s0, s1, s2, s3 float32
		for i, x := range q {
			s0 += x * z0[i]
			s1 += x * z1[i]
			s2 += x * z2[i]
			s3 += x * z3[i]
		}
		out[c] = s0 + gamma*logPop[d0]
		out[c1] = s1 + gamma*logPop[d1]
		out[c2] = s2 + gamma*logPop[d2]
		out[c3] = s3 + gamma*logPop[d3]
	}
}

// Knowledge generates the FB15k / full-Freebase stand-in; see
// KnowledgeWithTruth.
func Knowledge(cfg KGConfig) (*graph.Graph, error) {
	g, _, err := KnowledgeWithTruth(cfg)
	return g, err
}

// KnowledgeWithTruth generates edges (s, r, d) where d maximises the hidden
// relational score ⟨z_s ⊙ w_r + t_r, z_d⟩ + γ·logpop_d over a uniform
// candidate pool. The additive popularity term creates the heavy-tailed
// destination degrees of real knowledge graphs (§5.4.2 footnote) while
// remaining learnable (a model can absorb it into embedding norms); the
// latent term carries the relational structure. Source usage and relation
// usage are Zipf.
//
// Each attempt draws a relation, a source and CandidatePool candidates, so
// generation costs O(Edges × CandidatePool) scores. The work runs in three
// stages over blocks of attempts: the calling goroutine draws every id from
// one RNG stream, block b+1 while block b is scored on up to GOMAXPROCS
// goroutines, and the calling goroutine dedups the winners in attempt
// order. No score feeds back into the draws, so the graph is the same
// bytes at any processor count.
func KnowledgeWithTruth(cfg KGConfig) (*graph.Graph, *KGTruth, error) {
	cfg.defaults()
	if cfg.Entities < 4 || cfg.Relations < 1 || cfg.Edges < 1 || cfg.CandidatePool < 1 {
		return nil, nil, fmt.Errorf("datagen: knowledge config invalid")
	}
	r := rng.New(cfg.Seed)
	k := cfg.LatentDim
	z := make([]float32, cfg.Entities*k)
	for i := range z {
		z[i] = r.NormFloat32()
	}
	latent := vec.MatrixFrom(z, cfg.Entities, k)
	relW := make([]float32, cfg.Relations*k)
	relT := make([]float32, cfg.Relations*k)
	for i := range relW {
		relW[i] = r.NormFloat32()
		relT[i] = r.NormFloat32() * 0.5
	}
	// Per-entity popularity boost: Zipf-shaped log weights, normalised to
	// zero mean so it tilts rather than dominates the latent scores.
	logPop := make([]float32, cfg.Entities)
	zp := rng.NewZipf(cfg.Entities, cfg.PopularityExponent)
	counts := make([]float64, cfg.Entities)
	for i := 0; i < cfg.Entities*4; i++ {
		counts[zp.Sample(r)]++
	}
	var meanLog float64
	for i := range logPop {
		logPop[i] = float32(math.Log(counts[i] + 1))
		meanLog += float64(logPop[i])
	}
	meanLog /= float64(cfg.Entities)
	for i := range logPop {
		logPop[i] -= float32(meanLog)
	}
	truth := &KGTruth{
		Latent: latent,
		RelW:   vec.MatrixFrom(relW, cfg.Relations, k),
		RelT:   vec.MatrixFrom(relT, cfg.Relations, k),
		LogPop: logPop,
		Gamma:  1.5,
	}
	draws := &kgDraws{
		r:          r,
		relations:  rng.NewZipf(cfg.Relations, 1.05),
		popularity: rng.NewZipf(cfg.Entities, cfg.PopularityExponent),
		entities:   cfg.Entities,
		pool:       cfg.CandidatePool,
		perBlock:   max(1, kgBlockCandidates/cfg.CandidatePool),
		left:       cfg.Edges * 20,
	}
	el := &graph.EdgeList{}
	seen := make(map[[2]int64]bool, cfg.Edges)
	// dedup appends cur's new edges in attempt order and reports whether
	// the graph is complete.
	dedup := func(cur *kgBlock) bool {
		for a, best := range cur.best {
			if el.Len() >= cfg.Edges {
				break
			}
			if best < 0 {
				continue
			}
			s, rel := cur.src[a], cur.rel[a]
			key := [2]int64{int64(s)<<32 | int64(best), int64(rel)}
			if seen[key] {
				continue
			}
			seen[key] = true
			el.Append(s, rel, best)
		}
		return el.Len() >= cfg.Edges
	}
	// Two blocks alternate: the next one is drawn while the current one is
	// scored, and scored while the current one is deduped.
	var blocks [2]kgBlock
	procs := runtime.GOMAXPROCS(0)
	cur, next := &blocks[0], &blocks[1]
	draws.fill(cur)
	cur.score(truth, cfg.CandidatePool, procs)
	for {
		more := draws.fill(next)
		cur.wg.Wait()
		if more {
			next.score(truth, cfg.CandidatePool, procs)
		}
		done := dedup(cur)
		if done || !more {
			next.wg.Wait()
			break
		}
		cur, next = next, cur
	}
	rels := make([]graph.RelationType, cfg.Relations)
	for i := range rels {
		rels[i] = graph.RelationType{
			Name:       fmt.Sprintf("rel_%d", i),
			SourceType: "entity",
			DestType:   "entity",
			Operator:   "translation",
		}
	}
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "entity", Count: cfg.Entities, NumPartitions: cfg.NumPartitions}},
		rels,
	)
	g, err := graph.NewGraph(schema, el)
	if err != nil {
		return nil, nil, err
	}
	return g, truth, nil
}

// kgBlockCandidates sizes a block of generation attempts by the candidate
// ids it holds (256 KiB of them), so a block stays cache-resident however
// wide the pool.
const kgBlockCandidates = 1 << 16

// kgDraws is the draw stage of KnowledgeWithTruth: it takes every attempt's
// relation, source and candidates from one RNG stream, in the order the
// attempts are made, and stops after the attempt cap.
type kgDraws struct {
	r                     *rng.RNG
	relations, popularity *rng.Zipf
	entities, pool        int
	perBlock              int // attempts per block
	left                  int // attempts not yet drawn
}

// fill draws the next block of attempts into b, reusing its buffers, and
// reports whether there were any left to draw.
func (dr *kgDraws) fill(b *kgBlock) bool {
	n := min(dr.perBlock, dr.left)
	dr.left -= n
	b.rel = slices.Grow(b.rel[:0], n)[:n]
	b.src = slices.Grow(b.src[:0], n)[:n]
	b.best = slices.Grow(b.best[:0], n)[:n]
	b.cand = slices.Grow(b.cand[:0], n*dr.pool)[:n*dr.pool]
	for a := 0; a < n; a++ {
		b.rel[a] = int32(dr.relations.Sample(dr.r))
		b.src[a] = int32(dr.popularity.Sample(dr.r))
		cands := b.cand[a*dr.pool : (a+1)*dr.pool]
		for c := range cands {
			cands[c] = int32(dr.r.Intn(dr.entities))
		}
	}
	return n > 0
}

// kgBlock is one block of attempts: the drawn ids, and per attempt the
// best-scoring candidate, or -1 when every candidate was the source.
type kgBlock struct {
	rel, src, best []int32
	cand           []int32 // pool ids of attempt a at [a·pool, (a+1)·pool)
	next           atomic.Int64
	wg             sync.WaitGroup
}

// kgScoreChunk is the number of candidates a scoring goroutine claims at a
// time, small enough that the goroutines finish a block together.
const kgScoreChunk = 4096

// score starts scoring b's attempts on up to procs goroutines; b.wg.Wait
// waits for it. Each attempt's query is computed once, and its best
// candidate is the first strict maximum over the candidates other than
// the source.
func (b *kgBlock) score(t *KGTruth, pool, procs int) {
	n := len(b.best)
	chunk := max(1, kgScoreChunk/pool)
	workers := min(procs, (n+chunk-1)/chunk)
	b.next.Store(0)
	b.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer b.wg.Done()
			q := make([]float32, t.Latent.Cols)
			sc := make([]float32, pool)
			for {
				lo := int(b.next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				for a := lo; a < min(lo+chunk, n); a++ {
					s, cands := b.src[a], b.cand[a*pool:(a+1)*pool]
					t.query(q, s, b.rel[a])
					t.scores(sc, q, cands)
					best, bestScore := int32(-1), float32(0)
					for c, d := range cands {
						if d != s && (best < 0 || sc[c] > bestScore) {
							best, bestScore = d, sc[c]
						}
					}
					b.best[a] = best
				}
			}
		}()
	}
}

// BipartiteConfig parameterises the user×item graph from §3.1's motivation
// (e.g. 1B users vs 1M products — unbalanced entity types).
type BipartiteConfig struct {
	Users, Items   int
	Edges          int
	LatentDim      int
	CandidatePool  int
	UserPartitions int
	Seed           uint64
}

// Bipartite generates a two-entity-type purchase graph where users buy items
// matching their hidden taste vector; items have Zipf popularity. Users are
// partitioned, items (small cardinality) are not — the configuration of
// Figure 1 (center).
func Bipartite(cfg BipartiteConfig) (*graph.Graph, error) {
	if cfg.LatentDim == 0 {
		cfg.LatentDim = 8
	}
	if cfg.CandidatePool == 0 {
		cfg.CandidatePool = 8
	}
	if cfg.UserPartitions <= 0 {
		cfg.UserPartitions = 1
	}
	if cfg.Users < 1 || cfg.Items < 2 || cfg.Edges < 1 {
		return nil, fmt.Errorf("datagen: bipartite config invalid")
	}
	r := rng.New(cfg.Seed)
	k := cfg.LatentDim
	uz := make([]float32, cfg.Users*k)
	iz := make([]float32, cfg.Items*k)
	for i := range uz {
		uz[i] = r.NormFloat32()
	}
	for i := range iz {
		iz[i] = r.NormFloat32()
	}
	users := vec.MatrixFrom(uz, cfg.Users, k)
	items := vec.MatrixFrom(iz, cfg.Items, k)
	pop := rng.NewZipf(cfg.Items, 1.1)
	el := &graph.EdgeList{}
	seen := make(map[int64]bool, cfg.Edges)
	attempts := 0
	for el.Len() < cfg.Edges && attempts < cfg.Edges*20 {
		attempts++
		u := r.Intn(cfg.Users)
		best, bestScore := -1, float32(0)
		for c := 0; c < cfg.CandidatePool; c++ {
			it := pop.Sample(r)
			sc := vec.Dot(users.Row(u), items.Row(it))
			if best < 0 || sc > bestScore {
				best, bestScore = it, sc
			}
		}
		key := int64(u)<<32 | int64(best)
		if seen[key] {
			continue
		}
		seen[key] = true
		el.Append(int32(u), 0, int32(best))
	}
	schema := graph.MustSchema(
		[]graph.EntityType{
			{Name: "user", Count: cfg.Users, NumPartitions: cfg.UserPartitions},
			{Name: "item", Count: cfg.Items, NumPartitions: 1},
		},
		[]graph.RelationType{{Name: "buys", SourceType: "user", DestType: "item", Operator: "identity"}},
	)
	return graph.NewGraph(schema, el)
}
