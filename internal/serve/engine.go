package serve

import (
	"fmt"
	"math"
	"time"

	"pbg/internal/eval"
	"pbg/internal/vec"
)

// scoreBlock is the candidate chunk width of a scan: it bounds the score
// matrix (n queries × scoreBlock floats), the scratch a block is materialised
// into when it has to be (scoreRows), and the threshold filter's survivor
// list.
const scoreBlock = 256

// TopKRequest asks for the K best-scoring destination entities under one
// relation: argmax_d f(src, rel, d) over every destination-type entity.
type TopKRequest struct {
	// Rel is the relation index in the schema.
	Rel int
	// SrcID is the global ID of the query (source-side) entity. Ignored
	// when Vector is set.
	SrcID int32
	// Vector, when non-nil, is a raw dim-length query embedding used
	// instead of a stored row (e.g. an externally computed centroid). It is
	// transformed through the relation operator like a stored row.
	Vector []float32
	// K is the number of neighbours wanted.
	K int
	// Exact forces the brute-force scan even when an IVF index is loaded.
	Exact bool
	// NProbe overrides the server's probe width for this request
	// (0 = server default). Ignored in exact mode.
	NProbe int
}

// TopKResult holds one request's neighbours, best first. Ties are broken by
// eval.CompareScored (higher score, then lower ID), so results are
// deterministic across replicas and read paths.
type TopKResult struct {
	IDs    []int32
	Scores []float32
	// Scanned counts candidate rows scored for this answer. A request that
	// repeats another of its batch is answered from that one's scan and
	// reports its counts (Scanned, Probed): the work per answer, done once.
	Scanned int
	// Probed counts IVF lists visited (0 on the exact path).
	Probed int
	// Reranked is always 0: every scan is full precision, and nothing is
	// re-scored. It is not on the wire, and stays only while the benchmark
	// module still reads it.
	Reranked int
}

// ScoreRequest asks for the model score of one (src, rel, dst) edge.
type ScoreRequest struct {
	Rel int
	Src int32
	Dst int32
}

// scored is one candidate in a top-K selection.
type scored struct {
	id    int32
	score float32
}

// after reports whether a ranks after b under the shared eval ordering.
//
//pbg:hotpath
func after(a, b scored) bool {
	return eval.CompareScored(b.score, b.id, a.score, a.id)
}

// topkHeap is a bounded selection heap: it keeps the K best candidates seen,
// with the worst kept candidate at the root so a beat-the-worst test is one
// comparison. Ordering is eval.CompareScored throughout.
type topkHeap struct {
	k int
	h []scored
}

func (t *topkHeap) reset(k int) {
	t.k = k
	t.h = t.h[:0]
}

// offer is push behind a one-comparison reject: on a full heap a score
// strictly below the root's can never be kept. Ties with the root and NaNs
// (for which the comparison is false) fall through to push, which orders them
// by eval.CompareScored.
//
//pbg:hotpath
func (t *topkHeap) offer(id int32, score float32) {
	if len(t.h) == t.k && score < t.h[0].score {
		return
	}
	t.push(id, score)
}

// selRow lists the entries of one score row of at most scoreBlock entries
// that pass vec.SelectGE, with the vec.PackSlack entries past them its
// assembly may overwrite.
type selRow [scoreBlock + vec.PackSlack]int32

// offerRow offers one score row of a scan — candidate base+ids[j], or base+j
// under a nil ids, at scores[j] — in ascending j. Rejection is the fate of
// almost every candidate, so the row is first filtered as a whole
// (vec.SelectGE: 8 compares a step, each step's survivors stored left-packed
// with no branch and no heap touched) against the root as it stands when the
// row starts, and only the survivors, listed in sel, are offered. The filter
// passes exactly what offer's own test passes at that root, and the root only
// rises while the row is consumed, so an entry the filter drops is one offer
// would have dropped when its turn came: the heap sees the same pushes in the
// same order as a per-entry loop. A heap that is not full yet has no root to
// beat and filters against −Inf, i.e. nothing.
//
//pbg:hotpath
func (t *topkHeap) offerRow(sel *selRow, scores []float32, base int32, ids []int32) {
	floor := float32(math.Inf(-1))
	if len(t.h) == t.k {
		floor = t.h[0].score
	}
	for _, j := range sel[:vec.SelectGE(sel[:], scores, floor)] {
		id := base + j
		if ids != nil {
			id = base + ids[j]
		}
		t.offer(id, scores[j])
	}
}

//pbg:hotpath
func (t *topkHeap) push(id int32, score float32) {
	c := scored{id: id, score: score}
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		// Sift up: keep the worst candidate at the root.
		i := len(t.h) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !after(t.h[i], t.h[parent]) {
				break
			}
			t.h[i], t.h[parent] = t.h[parent], t.h[i]
			i = parent
		}
		return
	}
	if !after(t.h[0], c) {
		return // c does not beat the current worst
	}
	t.h[0] = c
	siftDown(t.h, 0)
}

// siftDown restores the worst-at-root order below h[i].
//
//pbg:hotpath
func siftDown(h []scored, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < len(h) && after(h[l], h[worst]) {
			worst = l
		}
		if r < len(h) && after(h[r], h[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// take empties the heap into a best-first result: popping the worst kept
// candidate to the back, len(h) times, sorts the heap in place, so the two
// result slices are the only allocations.
func (t *topkHeap) take(res *TopKResult) {
	for n := len(t.h) - 1; n > 0; n-- {
		t.h[0], t.h[n] = t.h[n], t.h[0]
		siftDown(t.h[:n], 0)
	}
	res.IDs = make([]int32, len(t.h))
	res.Scores = make([]float32, len(t.h))
	for i, c := range t.h {
		res.IDs[i] = c.id
		res.Scores[i] = c.score
	}
}

// workspace is per-call scratch, pooled by the Server so steady-state
// requests allocate only their result slices.
type workspace struct {
	q       vec.Matrix // gathered raw query embeddings
	tq      vec.Matrix // operator-transformed (then prepared) queries
	scratch vec.Matrix // a candidate block that had to be materialised (scoreRows)
	scores  vec.Matrix // n×block cross-score output
	heaps   []topkHeap
	// sel lists the entries of one score row that pass the threshold filter
	// in front of a heap (offerRow).
	sel selRow
	// The IVF scan's plan: every query's centroid scores as probeKeys, then
	// the batch's selected cells inverted into list → probing queries (CSR:
	// cellQ holds the query indices of cell c up to cellEnd[c]), and the
	// probing queries' prepared rows copied next to each other for the list's
	// GEMM.
	probes  []uint64
	cellEnd []int32
	cellQ   []int32
	sub     vec.Matrix
	// A group's distinct questions (dedupe): the requests and their results,
	// the hash table that found them, and each request's question.
	ureqs []TopKRequest
	uout  []TopKResult
	seen  []int32
	rep   []int32
	// What one TopK call did, for the serving metrics.
	tally tally
	last  time.Time // end of the last stage booked (lap)
}

// tally is one TopK call's work: counts over the distinct questions scored —
// a duplicate is answered from its first asker's result and adds to deduped
// only — and the call's wall time split into its two stages.
type tally struct {
	scanned, probed int
	// gathered counts the rows read from the shards, copied into scratch or
	// scored in place (pbg_serve_rows_gathered_total): a scan shares each row
	// it reads across the batch, so scanned ÷ gathered is the re-use.
	gathered int
	deduped  int
	// plan is validation, query gather and transform, de-duplication and, on
	// the index path, centroid scoring, probe selection and the inversion;
	// scan is candidate scoring and top-K selection. Together they are the
	// whole call.
	plan, scan time.Duration
}

// lap books the time since the last lap to a stage.
func (ws *workspace) lap(stage *time.Duration) {
	now := time.Now()
	*stage += now.Sub(ws.last)
	ws.last = now
}

// heapsFor returns the pooled heaps sized to a batch of n; callers reset
// each to its request's K.
func (ws *workspace) heapsFor(n int) []topkHeap {
	if cap(ws.heaps) < n {
		ws.heaps = make([]topkHeap, n)
	}
	return ws.heaps[:n]
}

func ensureMat(m *vec.Matrix, rows, cols int) vec.Matrix {
	if cap(m.Data) < rows*cols {
		*m = vec.NewMatrix(rows, cols)
	} else {
		*m = vec.MatrixFrom(m.Data[:rows*cols], rows, cols)
	}
	return *m
}

// gatherQueries fills ws.q and ws.tq for the group's requests and prepares
// the transformed queries. Returns the prepared n×dim query matrix.
func (v *view) gatherQueries(ws *workspace, rel int, srcOf func(i int) (int32, []float32), n int) vec.Matrix {
	dim := v.ss.dim
	sc := v.scorers[rel]
	fwd := v.relFwd[rel]
	srcType := v.srcType[rel]
	q := ensureMat(&ws.q, n, dim)
	for i := 0; i < n; i++ {
		id, raw := srcOf(i)
		if raw != nil {
			copy(q.Row(i), raw)
		} else {
			v.ss.CopyRow(srcType, id, q.Row(i))
		}
	}
	tq := ensureMat(&ws.tq, n, dim)
	for i := 0; i < n; i++ {
		sc.Op.Apply(tq.Row(i), q.Row(i), fwd)
	}
	sc.Cmp.Prepare(tq)
	return tq
}

// scoreRows is the one block scorer: it cross-scores the prepared queries q
// against m candidate rows of src — rows ids when ids is non-nil (m is then
// len(ids)), rows [lo, lo+m) otherwise — into the returned q.Rows×m matrix.
// A block is materialised into scratch only when the comparator's Prepare is
// not the identity (cos normalises rows in place, and a mapping is
// PROT_READ). Otherwise the rows are read where they lie: a contiguous range
// is a zero-copy sub-matrix of the source, an id list goes to
// CrossScoresRows, whose GEMM tile takes each row's address from the list.
// Either way the scores are bitwise those of the materialised block.
//
//pbg:hotpath
func (v *view) scoreRows(ws *workspace, rel int, q, src vec.Matrix, lo, m int, ids []int32) vec.Matrix {
	dim := v.ss.dim
	sc := v.scorers[rel]
	out := ensureMat(&ws.scores, q.Rows, m)
	cand := src
	switch {
	case !v.rawRows[rel]:
		cand = ensureMat(&ws.scratch, m, dim)
		fill(cand, src, lo, ids)
		sc.Cmp.Prepare(cand)
		ids = nil
	case ids == nil:
		cand = vec.MatrixFrom(cand.Data[lo*dim:(lo+m)*dim], m, dim)
	}
	sc.Cmp.CrossScoresRows(out, q, cand, ids)
	return out
}

// topKExact runs the brute-force scan for a group of requests sharing one
// relation: every destination-type partition, block by block, one GEMM per
// (group, block). Results are written into out[i] for each group request.
func (v *view) topKExact(ws *workspace, rel int, reqs []TopKRequest, out []TopKResult) {
	n := len(reqs)
	tq := v.gatherQueries(ws, rel, func(i int) (int32, []float32) {
		return reqs[i].SrcID, reqs[i].Vector
	}, n)
	ws.lap(&ws.tally.plan)

	heaps := ws.heapsFor(n)
	for i := range heaps {
		heaps[i].reset(reqs[i].K)
	}
	scanned := v.scanShards(ws, rel, tq, heaps)
	for i := range heaps {
		heaps[i].take(&out[i])
		out[i].Scanned = scanned
	}
}

// scanShards offers every destination-type row to every query's heap, one
// GEMM per block, and returns the rows scanned.
//
//pbg:hotpath
func (v *view) scanShards(ws *workspace, rel int, tq vec.Matrix, heaps []topkHeap) int {
	dstType := v.dstType[rel]
	ent := &v.ss.schema.Entities[dstType]
	scanned := 0
	for p := 0; p < ent.NumPartitions; p++ {
		nrows := ent.PartitionCount(p)
		base := int32(p * ent.PartSize())
		src := v.ss.Rows(dstType, p)
		for lo := 0; lo < nrows; lo += scoreBlock {
			m := min(scoreBlock, nrows-lo)
			scores := v.scoreRows(ws, rel, tq, src, lo, m, nil)
			for i := range heaps {
				heaps[i].offerRow(&ws.sel, scores.Row(i), base+int32(lo), nil)
			}
			scanned += m
		}
	}
	ws.tally.gathered += scanned
	return scanned
}

// scorePairs batch-scores (src, rel, dst) edges for a group sharing one
// relation. The construction matches model.Scorer.Score bit for bit: the
// source is operator-transformed, both sides prepared, then pair-scored.
func (v *view) scorePairs(ws *workspace, rel int, reqs []ScoreRequest, out []float32) {
	n := len(reqs)
	sc := v.scorers[rel]
	dim := v.ss.dim
	tq := v.gatherQueries(ws, rel, func(i int) (int32, []float32) {
		return reqs[i].Src, nil
	}, n)
	dstType := v.dstType[rel]
	scratch := ensureMat(&ws.scratch, n, dim)
	for i := 0; i < n; i++ {
		v.ss.CopyRow(dstType, reqs[i].Dst, scratch.Row(i))
	}
	sc.Cmp.Prepare(scratch)
	sc.Cmp.PairScores(out, tq, scratch)
}

// rank computes the mid-rank of dst among all destination-type entities for
// (src, rel) — the serving twin of eval.Ranker's rank, sharing eval.MidRank
// so online and offline ranks agree on tie handling. The true edge itself is
// excluded from the candidate set, matching eval. A mid-rank less one is a
// count of wins and half ties, so it is summed block by block over the scan's
// score rows, and nothing is allocated per request.
func (v *view) rank(ws *workspace, rel int, src, dst int32) (float64, error) {
	dstType := v.dstType[rel]
	ent := &v.ss.schema.Entities[dstType]
	if int(dst) >= ent.Count || dst < 0 {
		return 0, fmt.Errorf("serve: rank dst %d out of range for type %d (count %d)", dst, dstType, ent.Count)
	}
	tq := v.gatherQueries(ws, rel, func(int) (int32, []float32) {
		return src, nil
	}, 1)

	// True score first, through the same block scorer (an n=1 block is a
	// strip of one row, every cell bitwise vec.Dot, so this is bitwise
	// model.Scorer.Score).
	dp := ent.PartitionOf(dst)
	dlocal := int(ent.LocalOffset(dst))
	trueScores := v.scoreRows(ws, rel, tq, v.ss.Rows(dstType, dp), dlocal, 1, nil)
	trueScore := trueScores.Row(0)[0]

	rank := 1.0
	for p := 0; p < ent.NumPartitions; p++ {
		nrows := ent.PartitionCount(p)
		src := v.ss.Rows(dstType, p)
		for lo := 0; lo < nrows; lo += scoreBlock {
			m := min(scoreBlock, nrows-lo)
			row := v.scoreRows(ws, rel, tq, src, lo, m, nil).Row(0)
			j := m // the true destination's column, m when it is not in this block
			if p == dp && dlocal >= lo && dlocal < lo+m {
				j = dlocal - lo
			}
			rank += eval.MidRank(trueScore, row[:j]) + eval.MidRank(trueScore, row[min(j+1, m):]) - 2
		}
	}
	return rank, nil
}
