package serve

import (
	"math"

	"pbg/internal/rng"
	"pbg/internal/vec"
)

// IVF is an inverted-file ANN index over a ShardSet. The checkpoint's
// partitions are the natural coarse quantizer — rows of one partition were
// trained together and stay together on disk — and each partition is
// subdivided by k-means into nlist sub-centroid lists. A query scores every
// sub-centroid through the trained relation operator/comparator (so "near"
// means near under the model's own similarity, not raw Euclidean), then
// exhaustively scores only the rows of its best nprobe lists. A batch of
// queries is scanned list by list, not query by query: each probed list is
// gathered once and scored against every query that probes it (scanProbed).
//
// The index stores per destination-type: per partition, an nlist×dim
// centroid matrix plus, per centroid, the local row IDs assigned to it —
// ids only, the rows stay in the ShardSet and are gathered at query time.
// It is immutable after Build/ReadIVF and safe for concurrent readers.
type IVF struct {
	Dim int
	// Types is indexed by entity-type index; nil entries are unindexed
	// types (no relation uses them as a destination, or the index predates
	// them).
	Types []*ivfType
}

type ivfType struct {
	Parts []ivfPart
	// Lists is the total sub-centroid list count across partitions, the
	// denominator for DefaultNProbe.
	Lists int
}

type ivfPart struct {
	// Centroids is nlist×dim; list l holds the rows k-means assigned to
	// centroid l, as partition-local row indices.
	Centroids vec.Matrix
	Lists     [][]int32
}

// IVFConfig controls index construction.
type IVFConfig struct {
	// MaxLists caps sub-centroids per partition; nlist is
	// min(MaxLists, ceil(sqrt(rows))). 0 means the default 256.
	MaxLists int
	// Iters is the number of Lloyd iterations (0 = default 8).
	Iters int
	// Seed feeds the k-means initialisation.
	Seed uint64
}

func (c IVFConfig) withDefaults() IVFConfig {
	if c.MaxLists <= 0 {
		c.MaxLists = 256
	}
	if c.Iters <= 0 {
		c.Iters = 8
	}
	return c
}

// DefaultNProbe is the probe width used when a request doesn't set one:
// 40% of the type's lists, at least 4. Euclidean sub-centroids are an
// imperfect router for dot-product similarity (a high-norm row can score
// high from a "far" cell), so the default is deliberately conservative —
// measured ≥ 0.95 recall@10 on the property-test fixtures while still
// pruning ~2.5× of the scan. Latency-sensitive callers tune NProbe per
// request; the recall property test pins this default.
func DefaultNProbe(totalLists int) int {
	np := (totalLists*2 + 4) / 5
	if np < 4 {
		np = 4
	}
	if np > totalLists {
		np = totalLists
	}
	return np
}

// BuildIVF clusters every partition of every entity type in the set.
func BuildIVF(ss *ShardSet, cfg IVFConfig) *IVF {
	cfg = cfg.withDefaults()
	idx := &IVF{Dim: ss.dim, Types: make([]*ivfType, len(ss.schema.Entities))}
	for t := range ss.schema.Entities {
		ent := &ss.schema.Entities[t]
		it := &ivfType{Parts: make([]ivfPart, ent.NumPartitions)}
		for p := 0; p < ent.NumPartitions; p++ {
			// MaterializeRows: on a quantized-only shard, clustering runs over
			// a dequantized fp32 copy (freed after the build).
			rows := ss.MaterializeRows(t, p)
			r := rng.New(cfg.Seed ^ uint64(t)<<32 ^ uint64(p)<<8 ^ 0x9e3779b97f4a7c15)
			it.Parts[p] = buildPart(rows, cfg, r)
			it.Lists += len(it.Parts[p].Lists)
		}
		idx.Types[t] = it
	}
	return idx
}

// buildPart runs Lloyd k-means over one partition's rows. Clustering is in
// raw embedding space with Euclidean distance — cheap, deterministic, and
// good enough as a bucketing device; retrieval quality is measured under
// the model comparator by the recall property test, not assumed here.
func buildPart(rows vec.Matrix, cfg IVFConfig, r *rng.RNG) ivfPart {
	n, dim := rows.Rows, rows.Cols
	nlist := int(math.Ceil(math.Sqrt(float64(n))))
	if nlist > cfg.MaxLists {
		nlist = cfg.MaxLists
	}
	if nlist < 1 {
		nlist = 1
	}
	if nlist > n {
		nlist = n
	}
	cent := vec.NewMatrix(nlist, dim)
	if n == 0 {
		return ivfPart{Centroids: cent, Lists: make([][]int32, nlist)}
	}
	// Init: a random sample of distinct rows.
	perm := make([]int, n)
	r.Perm(perm)
	for c := 0; c < nlist; c++ {
		copy(cent.Row(c), rows.Row(perm[c]))
	}
	assign := make([]int32, n)
	counts := make([]int, nlist)
	for iter := 0; iter < cfg.Iters; iter++ {
		for i := 0; i < n; i++ {
			assign[i] = int32(nearestCentroid(cent, rows.Row(i)))
		}
		for c := range counts {
			counts[c] = 0
		}
		vec.Zero(cent.Data)
		for i := 0; i < n; i++ {
			vec.Axpy(1, rows.Row(i), cent.Row(int(assign[i])))
			counts[assign[i]]++
		}
		for c := 0; c < nlist; c++ {
			if counts[c] == 0 {
				// Empty cluster: reseed on a random row so no list is dead.
				copy(cent.Row(c), rows.Row(r.Intn(n)))
				continue
			}
			vec.Scale(1/float32(counts[c]), cent.Row(c))
		}
	}
	// Final assignment into lists.
	lists := make([][]int32, nlist)
	for i := 0; i < n; i++ {
		c := nearestCentroid(cent, rows.Row(i))
		lists[c] = append(lists[c], int32(i))
	}
	return ivfPart{Centroids: cent, Lists: lists}
}

func nearestCentroid(cent vec.Matrix, x []float32) int {
	best, bestD := 0, float32(math.Inf(1))
	for c := 0; c < cent.Rows; c++ {
		d := vec.SquaredDistance(cent.Row(c), x)
		if d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// probeCand is one list with a query's centroid score for it. cell numbers
// the type's lists in (partition, list) order, so it is also the tie-break
// that keeps selection deterministic.
type probeCand struct {
	cell  int32
	score float32
}

// topKIVF answers a group of same-relation requests through the index:
// score all sub-centroids with the prepared queries, keep each query's
// nprobe best lists, and exact-score only those lists' rows — list by list
// for the whole batch (scanProbed).
func (v *view) topKIVF(ws *workspace, rel int, reqs []TopKRequest, out []TopKResult) {
	n := len(reqs)
	tq := v.gatherQueries(ws, rel, func(i int) (int32, []float32) {
		return reqs[i].SrcID, reqs[i].Vector
	}, n)
	it := v.ivf.Types[v.dstType[rel]]
	lists := it.Lists

	// Stage 1: centroid scores for the whole group, one block GEMM per
	// partition's centroid matrix. Collected per query into ws.probes.
	if cap(ws.probes) < n*lists {
		ws.probes = make([]probeCand, n*lists)
	}
	probes := ws.probes[:n*lists]
	col := 0
	for p := range it.Parts {
		cent := it.Parts[p].Centroids
		for lo := 0; lo < cent.Rows; lo += scoreBlock {
			m := min(scoreBlock, cent.Rows-lo)
			scores := v.scoreCandidateBlock(ws, rel, tq, cent, lo, m)
			for i := 0; i < n; i++ {
				mine := probes[i*lists+col:]
				for j, s := range scores.Row(i) {
					mine[j] = probeCand{cell: int32(col + j), score: s}
				}
			}
			col += m
		}
	}

	// Stage 2: every query selects its nprobe best lists (queries in the
	// group can have different probe widths), and the selections are inverted
	// into list → probing queries with a counting sort over the cells:
	// count, prefix-sum to each cell's start, then place — which leaves
	// cellEnd[c] at the end of cell c's queries, in ascending query order.
	defProbe := v.nprobe
	if defProbe <= 0 {
		defProbe = DefaultNProbe(lists)
	}
	if cap(ws.cellEnd) < lists {
		ws.cellEnd = make([]int32, lists)
	}
	cellEnd := ws.cellEnd[:lists]
	clear(cellEnd)
	heaps := ws.heapsFor(n)
	total := 0
	for i := range reqs {
		nprobe := reqs[i].NProbe
		if nprobe <= 0 {
			nprobe = defProbe
		}
		nprobe = min(nprobe, lists)
		mine := probes[i*lists : (i+1)*lists]
		selectProbes(mine, nprobe)
		for _, pc := range mine[:nprobe] {
			cellEnd[pc.cell]++
		}
		heaps[i].reset(reqs[i].K)
		out[i] = TopKResult{Probed: nprobe}
		total += nprobe
	}
	start := int32(0)
	for c, cnt := range cellEnd {
		cellEnd[c] = start
		start += cnt
	}
	if cap(ws.cellQ) < total {
		ws.cellQ = make([]int32, total)
	}
	cellQ := ws.cellQ[:total]
	for i := range reqs {
		for _, pc := range probes[i*lists : i*lists+out[i].Probed] {
			cellQ[cellEnd[pc.cell]] = int32(i)
			cellEnd[pc.cell]++
		}
	}

	v.scanProbed(ws, rel, tq, cellEnd, cellQ, heaps, out)
	for i := range heaps {
		heaps[i].take(&out[i])
	}
}

// scanProbed is the list-major scan: it walks the destination type's lists
// once in (partition, list) order and, for each list some query of the batch
// probes, gathers the list's rows into scratch once, prepares them once, and
// scores them with one GEMM against the prepared rows of exactly the queries
// that probe it (copied next to each other into ws.sub), offering each score
// row to its query's heap. A row is therefore read from the mapping once per
// batch, not once per probing query, and the GEMM's register blocking re-uses
// it across four queries at a time. A batch of one is the same code with one
// query row: vec.MulABt's Dot tail, so its scores are bitwise
// model.Scorer.Score.
//
//pbg:hotpath
func (v *view) scanProbed(ws *workspace, rel int, tq vec.Matrix, cellEnd, cellQ []int32, heaps []topkHeap, out []TopKResult) {
	dim := v.ss.dim
	sc := v.scorers[rel]
	dstType := v.dstType[rel]
	ent := &v.ss.schema.Entities[dstType]
	parts := v.ivf.Types[dstType].Parts
	cell, start := 0, int32(0)
	for p := range parts {
		base := int32(p * ent.PartSize())
		for _, ids := range parts[p].Lists {
			qs := cellQ[start:cellEnd[cell]]
			start = cellEnd[cell]
			cell++
			if len(qs) == 0 || len(ids) == 0 {
				continue
			}
			sub := ensureMat(&ws.sub, len(qs), dim)
			for a, qi := range qs {
				copy(sub.Row(a), tq.Row(int(qi)))
				out[qi].Scanned += len(ids)
			}
			for lo := 0; lo < len(ids); lo += scoreBlock {
				blk := ids[lo:min(lo+scoreBlock, len(ids))]
				scratch := ensureMat(&ws.scratch, len(blk), dim)
				v.ss.gatherRows(dstType, p, blk, scratch)
				ws.gathered += len(blk)
				sc.Cmp.Prepare(scratch)
				scores := ensureMat(&ws.scores, len(qs), len(blk))
				sc.Cmp.CrossScores(scores, sub, scratch)
				for a, qi := range qs {
					h := &heaps[qi]
					for j, s := range scores.Row(a) {
						h.offer(base+blk[j], s)
					}
				}
			}
		}
	}
}

// selectProbes partially sorts cells so the nprobe best-by-score (ties by
// cell ascending, keeping selection deterministic) come first: a bounded
// heap over cells[:nprobe] with the worst kept cell at the root, swept by the
// rest. Sizes are small (lists ≤ a few thousand) and it allocates nothing.
func selectProbes(cells []probeCand, nprobe int) {
	if nprobe >= len(cells) {
		return
	}
	h := cells[:nprobe]
	for i := nprobe/2 - 1; i >= 0; i-- {
		siftProbes(h, i)
	}
	for _, c := range cells[nprobe:] {
		if c.before(h[0]) {
			h[0] = c
			siftProbes(h, 0)
		}
	}
}

func (a probeCand) before(b probeCand) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.cell < b.cell
}

// siftProbes restores the worst-at-root order below h[i].
func siftProbes(h []probeCand, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		w := i
		if l < len(h) && h[w].before(h[l]) {
			w = l
		}
		if r < len(h) && h[w].before(h[r]) {
			w = r
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// Bytes reports the serialized footprint of the index (centroid floats +
// list IDs + headers), the value behind the index-size gauge.
func (idx *IVF) Bytes() int64 {
	var b int64 = 16
	for _, it := range idx.Types {
		if it == nil {
			continue
		}
		for _, p := range it.Parts {
			b += 8 + int64(len(p.Centroids.Data))*4
			for _, l := range p.Lists {
				b += 4 + int64(len(l))*4
			}
		}
	}
	return b
}

// TotalLists reports the sub-centroid list count of one entity type
// (0 when unindexed).
func (idx *IVF) TotalLists(typeIdx int) int {
	if typeIdx >= len(idx.Types) || idx.Types[typeIdx] == nil {
		return 0
	}
	return idx.Types[typeIdx].Lists
}
