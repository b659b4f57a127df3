package serve

import (
	"math"

	"pbg/internal/graph"
	"pbg/internal/vec"
)

// OpenShardSetPrivate is OpenShardSet with the private-buffer byte source
// forced, so the parity test covers both sources on a platform that maps.
func OpenShardSetPrivate(dir string, schema *graph.Schema, dim int) (*ShardSet, error) {
	return openShardSet(dir, schema, dim, readImage)
}

// IVFGatherCounts runs one same-relation batch through the index on a fresh
// workspace and reports, next to the results, the rows the scan read from the
// shards and the rows in the union of the lists the batch's queries selected
// (read back from the plan the scan left in the workspace).
func (s *Server) IVFGatherCounts(reqs []TopKRequest) (gathered, union int, res []TopKResult, err error) {
	v, err := s.acquire()
	if err != nil {
		return 0, 0, nil, err
	}
	defer v.release()
	ws := &workspace{}
	res = make([]TopKResult, len(reqs))
	rel := reqs[0].Rel
	v.topKIVF(ws, rel, reqs, res)
	it := v.ivf.Types[v.dstType[rel]]
	selected := make([]bool, it.Lists)
	for i := range reqs {
		for _, pk := range ws.probes[i*it.Lists:][:res[i].Probed] {
			selected[uint32(pk)] = true
		}
	}
	cell := 0
	for _, part := range it.Parts {
		for _, ids := range part.Lists {
			if selected[cell] {
				union += len(ids)
			}
			cell++
		}
	}
	return ws.tally.gathered, union, res, nil
}

// ScratchFloatsUsed scores one single-group batch on a fresh workspace and
// reports how much scratch the scan asked for: 0 means every candidate block —
// shard rows and centroids — was scored where it lies.
func (s *Server) ScratchFloatsUsed(reqs []TopKRequest) (int, error) {
	v, err := s.acquire()
	if err != nil {
		return 0, err
	}
	defer v.release()
	ws := &workspace{}
	group, _ := v.singleGroup(reqs)
	v.topKGroup(ws, group, reqs, make([]TopKResult, len(reqs)))
	return cap(ws.scratch.Data), nil
}

// The reference scan. ReferenceTopK answers a batch the way this package did
// before rows were scored in place, score rows filtered ahead of the heaps,
// probes selected in linear time and duplicate queries answered once: every
// candidate block is copied into scratch and scored with vec.MulABt, every
// score is offered to its heap one at a time, a query's probes come out of a
// bounded heap, and a query repeated in the batch is scored again. It is kept
// here, in a test file, as the definition TestScanMatchesReference holds the
// product scan to, bit for bit; it allocates freely and shares only what that
// change did not touch (the query gather, the top-K heap, the row fill).

func (s *Server) ReferenceTopK(reqs []TopKRequest) ([]TopKResult, error) {
	if err := s.validateTopK(reqs); err != nil {
		return nil, err
	}
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	out := make([]TopKResult, len(reqs))
	var order []groupKey
	groups := map[groupKey][]int{}
	for i := range reqs {
		k := v.groupOf(&reqs[i])
		if groups[k] == nil {
			order = append(order, k)
		}
		groups[k] = append(groups[k], i)
	}
	for _, k := range order {
		idxs := groups[k]
		greqs, gout := make([]TopKRequest, len(idxs)), make([]TopKResult, len(idxs))
		for j, i := range idxs {
			greqs[j] = reqs[i]
		}
		if k.exact {
			v.refTopKExact(k.rel, greqs, gout)
		} else {
			v.refTopKIVF(k.rel, greqs, gout)
		}
		for j, i := range idxs {
			out[i] = gout[j]
		}
	}
	return out, nil
}

func (v *view) refQueries(rel int, reqs []TopKRequest) vec.Matrix {
	return v.gatherQueries(&workspace{}, rel, func(i int) (int32, []float32) {
		return reqs[i].SrcID, reqs[i].Vector
	}, len(reqs))
}

// refScoreBlock gathers a block into scratch, prepares it and scores it.
func (v *view) refScoreBlock(rel int, q vec.Matrix, src rowSource, lo, m int, ids []int32) vec.Matrix {
	scratch := vec.NewMatrix(m, v.ss.dim)
	src.fill(scratch, lo, ids)
	v.scorers[rel].Cmp.Prepare(scratch)
	out := vec.NewMatrix(q.Rows, m)
	v.scorers[rel].Cmp.CrossScores(out, q, scratch)
	return out
}

func (v *view) refTopKExact(rel int, reqs []TopKRequest, out []TopKResult) {
	tq := v.refQueries(rel, reqs)
	dstType := v.dstType[rel]
	ent := &v.ss.schema.Entities[dstType]
	quant := v.ss.QuantizedType(dstType)
	rerank := quant && v.ss.ExactType(dstType)
	heaps := make([]topkHeap, len(reqs))
	for i := range heaps {
		k := reqs[i].K
		if rerank {
			k = max(k, int(math.Ceil(float64(k)*v.rerank)))
		}
		heaps[i].reset(k)
	}
	scanned := 0
	for p := 0; p < ent.NumPartitions; p++ {
		nrows := ent.PartitionCount(p)
		base := int32(p * ent.PartSize())
		for lo := 0; lo < nrows; lo += scoreBlock {
			m := min(scoreBlock, nrows-lo)
			scores := v.refScoreBlock(rel, tq, v.ss.scanSource(dstType, p, quant), lo, m, nil)
			for i := range heaps {
				for j, s := range scores.Row(i) {
					heaps[i].offer(base+int32(lo+j), s)
				}
			}
			scanned += m
		}
	}
	for i := range heaps {
		if rerank {
			v.refRerank(rel, tq.Row(i), &heaps[i], reqs[i].K, &out[i])
		} else {
			heaps[i].take(&out[i])
		}
		out[i].Scanned = scanned
	}
}

func (v *view) refRerank(rel int, q []float32, survivors *topkHeap, k int, out *TopKResult) {
	dim := v.ss.dim
	dstType := v.dstType[rel]
	cands := survivors.h
	var rr topkHeap
	rr.reset(k)
	for lo := 0; lo < len(cands); lo += scoreBlock {
		blk := cands[lo:min(lo+scoreBlock, len(cands))]
		scratch := vec.NewMatrix(len(blk), dim)
		for j, c := range blk {
			v.ss.CopyRow(dstType, c.id, scratch.Row(j))
		}
		v.scorers[rel].Cmp.Prepare(scratch)
		scores := vec.NewMatrix(1, len(blk))
		v.scorers[rel].Cmp.CrossScores(scores, vec.MatrixFrom(q, 1, dim), scratch)
		for j, s := range scores.Row(0) {
			rr.offer(blk[j].id, s)
		}
	}
	rr.take(out)
	out.Reranked = len(cands)
}

// refProbe is one list with a query's centroid score for it.
type refProbe struct {
	cell  int32
	score float32
}

func (a refProbe) before(b refProbe) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.cell < b.cell
}

// refSelectProbes is the bounded heap: cells[:nprobe] with the worst kept
// cell at the root, swept by the rest.
func refSelectProbes(cells []refProbe, nprobe int) {
	if nprobe >= len(cells) {
		return
	}
	h := cells[:nprobe]
	sift := func(i int) {
		for {
			l, r, w := 2*i+1, 2*i+2, i
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
	for i := nprobe/2 - 1; i >= 0; i-- {
		sift(i)
	}
	for _, c := range cells[nprobe:] {
		if c.before(h[0]) {
			h[0] = c
			sift(0)
		}
	}
}

func (v *view) refTopKIVF(rel int, reqs []TopKRequest, out []TopKResult) {
	n := len(reqs)
	tq := v.refQueries(rel, reqs)
	dstType := v.dstType[rel]
	ent := &v.ss.schema.Entities[dstType]
	it := v.ivf.Types[dstType]
	lists := it.Lists

	probes := make([]refProbe, n*lists)
	col := 0
	for p := range it.Parts {
		cent := rowSource{rows: it.Parts[p].Centroids}
		for lo := 0; lo < cent.rows.Rows; lo += scoreBlock {
			m := min(scoreBlock, cent.rows.Rows-lo)
			scores := v.refScoreBlock(rel, tq, cent, lo, m, nil)
			for i := 0; i < n; i++ {
				for j, s := range scores.Row(i) {
					probes[i*lists+col+j] = refProbe{cell: int32(col + j), score: s}
				}
			}
			col += m
		}
	}
	defProbe := v.nprobe
	if defProbe <= 0 {
		defProbe = DefaultNProbe(lists)
	}
	cellQ := make([][]int32, lists) // list → probing queries, ascending
	heaps := make([]topkHeap, n)
	for i := range reqs {
		nprobe := reqs[i].NProbe
		if nprobe <= 0 {
			nprobe = defProbe
		}
		nprobe = min(nprobe, lists)
		mine := probes[i*lists : (i+1)*lists]
		refSelectProbes(mine, nprobe)
		for _, pc := range mine[:nprobe] {
			cellQ[pc.cell] = append(cellQ[pc.cell], int32(i))
		}
		heaps[i].reset(reqs[i].K)
		out[i] = TopKResult{Probed: nprobe}
	}
	cell := 0
	for p := range it.Parts {
		base := int32(p * ent.PartSize())
		for _, ids := range it.Parts[p].Lists {
			qs := cellQ[cell]
			cell++
			if len(qs) == 0 || len(ids) == 0 {
				continue
			}
			sub := vec.NewMatrix(len(qs), v.ss.dim)
			for a, qi := range qs {
				copy(sub.Row(a), tq.Row(int(qi)))
				out[qi].Scanned += len(ids)
			}
			for lo := 0; lo < len(ids); lo += scoreBlock {
				blk := ids[lo:min(lo+scoreBlock, len(ids))]
				scores := v.refScoreBlock(rel, sub, v.ss.scanSource(dstType, p, false), 0, len(blk), blk)
				for a, qi := range qs {
					for j, s := range scores.Row(a) {
						heaps[qi].offer(base+blk[j], s)
					}
				}
			}
		}
	}
	for i := range heaps {
		heaps[i].take(&out[i])
	}
}
