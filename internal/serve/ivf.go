package serve

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"pbg/internal/model"
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
// read once and scored against every query that probes it (scanProbed).
//
// The index stores per destination-type: per partition, an nlist×dim
// centroid matrix plus, per centroid, the local row IDs assigned to it —
// ids only, the rows stay in the ShardSet and are read there at query time.
// The lists of a partition are a partition of its rows (every row in exactly
// one list): BuildIVF produces that, ReadIVF refuses anything else.
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

// BuildIVF clusters every partition of every entity type in the set. The
// (type, partition) pairs are clustered concurrently on at most GOMAXPROCS
// goroutines, each pair with its own generator seeded from (Seed, type,
// partition), so the index depends only on the seed and the shards, never on
// the processor count.
func BuildIVF(ss *ShardSet, cfg IVFConfig) *IVF {
	cfg = cfg.withDefaults()
	idx := &IVF{Dim: ss.dim, Types: make([]*ivfType, len(ss.schema.Entities))}
	type job struct{ t, p int }
	var jobs []job
	for t := range ss.schema.Entities {
		ent := &ss.schema.Entities[t]
		idx.Types[t] = &ivfType{Parts: make([]ivfPart, ent.NumPartitions)}
		for p := 0; p < ent.NumPartitions; p++ {
			jobs = append(jobs, job{t, p})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				t, p := jobs[i].t, jobs[i].p
				r := rng.New(cfg.Seed ^ uint64(t)<<32 ^ uint64(p)<<8 ^ 0x9e3779b97f4a7c15)
				idx.Types[t].Parts[p] = buildPart(ss.Rows(t, p), cfg, r)
			}
		}()
	}
	wg.Wait()
	for _, it := range idx.Types {
		for _, part := range it.Parts {
			it.Lists += len(part.Lists)
		}
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
	scores := make([]float32, min(kmeansBlock, n)*nlist)
	for iter := 0; iter < cfg.Iters; iter++ {
		assignNearest(assign, rows, cent, scores)
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
	assignNearest(assign, rows, cent, scores)
	lists := make([][]int32, nlist)
	for i, c := range assign {
		lists[c] = append(lists[c], int32(i))
	}
	return ivfPart{Centroids: cent, Lists: lists}
}

// kmeansBlock is the number of rows assignNearest scores per GEMM.
const kmeansBlock = 256

// assignNearest sets assign[i] to the centroid nearest row i of rows. Each
// block of kmeansBlock rows is scored against every centroid by one
// SquaredL2Comparator.CrossScoresRows — −‖x−c‖² as 2·x·c − ‖x‖² − ‖c‖², one
// GEMM read straight from rows, which may be a read-only mapping — and each
// row takes its best score, ties going to the lowest centroid index; a row
// whose scores are all NaN goes to centroid 0. scores holds one block's
// scores: min(kmeansBlock, rows.Rows)·cent.Rows floats.
func assignNearest(assign []int32, rows, cent vec.Matrix, scores []float32) {
	n, dim, k := rows.Rows, rows.Cols, cent.Rows
	for lo := 0; lo < n; lo += kmeansBlock {
		m := min(kmeansBlock, n-lo)
		block := vec.MatrixFrom(rows.Data[lo*dim:(lo+m)*dim], m, dim)
		out := vec.MatrixFrom(scores[:m*k], m, k)
		model.SquaredL2Comparator{}.CrossScoresRows(out, block, cent, nil)
		blockAssign := assign[lo : lo+m]
		for i := range blockAssign {
			best, bestS := 0, float32(math.Inf(-1))
			for c, s := range out.Row(i) {
				if s > bestS {
					best, bestS = c, s
				}
			}
			blockAssign[i] = int32(best)
		}
	}
}

// probeKey packs one list's centroid score for a query and the list's cell —
// its number among the type's lists in (partition, list) order — into an
// integer whose ascending order is the probe order: higher score first, ties
// (±0 are one score) by lower cell, NaN scores after every number. The order
// is total and no two cells of a query share a key, so "the nprobe best lists"
// is one set whatever algorithm finds it; the cell is the key's low word.
//
//pbg:hotpath
func probeKey(cell int32, score float32) uint64 {
	u := math.Float32bits(score)
	switch {
	case score != score:
		u = 0
	case score == 0:
		u = 1 << 31
	default:
		// The usual order-preserving image of a float: flip every bit of a
		// negative, the sign bit of a positive.
		u ^= uint32(int32(u)>>31) | 1<<31
	}
	return uint64(^u)<<32 | uint64(uint32(cell))
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
		ws.probes = make([]uint64, n*lists)
	}
	probes := ws.probes[:n*lists]
	col := 0
	for p := range it.Parts {
		cent := it.Parts[p].Centroids
		for lo := 0; lo < cent.Rows; lo += scoreBlock {
			m := min(scoreBlock, cent.Rows-lo)
			scores := v.scoreRows(ws, rel, tq, cent, lo, m, nil)
			for i := 0; i < n; i++ {
				mine := probes[i*lists+col:]
				for j, s := range scores.Row(i) {
					mine[j] = probeKey(int32(col+j), s)
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
		for _, pk := range mine[:nprobe] {
			cellEnd[uint32(pk)]++
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
		for _, pk := range probes[i*lists : i*lists+out[i].Probed] {
			cellQ[cellEnd[uint32(pk)]] = int32(i)
			cellEnd[uint32(pk)]++
		}
	}
	ws.lap(&ws.tally.plan)

	v.scanProbed(ws, rel, tq, cellEnd, cellQ, heaps, out)
	for i := range heaps {
		heaps[i].take(&out[i])
	}
}

// scanProbed is the list-major scan: it walks the destination type's lists
// once in (partition, list) order and, for each list some query of the batch
// probes, scores the list's rows with one GEMM against the prepared rows of
// exactly the queries that probe it (copied next to each other into ws.sub),
// and offers each score row to its query's heap behind the threshold filter
// (offerRow). A row is therefore read from the shard once per batch, not once
// per probing query — where it lies in the mapping, unless it must be
// prepared first (scoreRows) — and the GEMM's register
// blocking re-uses it across four queries at a time. A batch of one is the
// same code with one query row: a strip of one row, whose every cell is
// bitwise vec.Dot, so its scores are bitwise model.Scorer.Score.
//
//pbg:hotpath
func (v *view) scanProbed(ws *workspace, rel int, tq vec.Matrix, cellEnd, cellQ []int32, heaps []topkHeap, out []TopKResult) {
	dim := v.ss.dim
	dstType := v.dstType[rel]
	ent := &v.ss.schema.Entities[dstType]
	parts := v.ivf.Types[dstType].Parts
	cell, start := 0, int32(0)
	for p := range parts {
		base := int32(p * ent.PartSize())
		src := v.ss.Rows(dstType, p)
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
			ws.tally.gathered += len(ids)
			for lo := 0; lo < len(ids); lo += scoreBlock {
				blk := ids[lo:min(lo+scoreBlock, len(ids))]
				scores := v.scoreRows(ws, rel, sub, src, 0, len(blk), blk)
				for a, qi := range qs {
					heaps[qi].offerRow(&ws.sel, scores.Row(a), base, blk)
				}
			}
		}
	}
}

// selectProbes moves the nprobe smallest keys — a query's nprobe best lists
// (probeKey) — to the front of keys, in no particular order: quickselect with
// a median-of-three pivot, which is linear where a bounded heap is
// O(L log nprobe) at its worst (nprobe = 0.4 L is the default). Nothing is
// drawn at random, and the keys are distinct under a total order, so the set
// that ends up in front is the same one the heap, or a full sort, would put
// there. Should the pivots go badly the range left is sorted instead, which
// bounds the cost at O(L log L). It allocates nothing.
//
//pbg:hotpath
func selectProbes(keys []uint64, nprobe int) {
	// The boundary nprobe stays inside [lo, hi]; everything left of lo is
	// already smaller than everything right of it, likewise for hi.
	lo, hi := 0, len(keys)
	for depth := 2 * bits.Len(uint(len(keys))); hi-lo > 12 && depth > 0; depth-- {
		if nprobe <= lo || nprobe >= hi {
			return
		}
		a, b, c := keys[lo], keys[lo+(hi-lo)/2], keys[hi-1]
		pivot := max(min(a, b), min(max(a, b), c))
		i, j := lo, hi-1
		for i <= j {
			for keys[i] < pivot {
				i++
			}
			for keys[j] > pivot {
				j--
			}
			if i <= j {
				keys[i], keys[j] = keys[j], keys[i]
				i++
				j--
			}
		}
		// keys[lo..j] ≤ pivot ≤ keys[i..hi), and if one index lies between
		// the two it holds the pivot; a median of three distinct keys leaves
		// both sides non-empty, so the range shrinks.
		if nprobe <= j+1 {
			hi = j + 1
		} else {
			lo = i
		}
	}
	slices.Sort(keys[lo:hi])
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
