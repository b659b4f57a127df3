package serve

import (
	"math"
	"slices"
	"testing"

	"pbg/internal/rng"
)

func takeAll(h *topkHeap) TopKResult {
	var res TopKResult
	h.take(&res)
	return res
}

// TestOfferMatchesPush pins that the rejects in front of push change nothing
// but the cost: over streams full of score ties, NaNs (for which "below the
// root" is false, so they must reach push, not be dropped) and ±Inf, a heap
// fed through offer, and one fed whole score rows through offerRow — each row
// filtered by vec.SelectGE against the root as it stood when the row began —
// keep exactly what one fed through push keeps, in the same order. Rows come
// in every length around the filter's 8-lane step and its 128-entry block,
// empty ones included, start on a heap that is not full yet, and take their
// ids from a base or from a list.
func TestOfferMatchesPush(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	r := rng.New(9)
	var sel [scoreBlock]int32
	for trial := 0; trial < 400; trial++ {
		k := 1 + r.Intn(6)
		var a, rows, b topkHeap
		a.reset(k)
		rows.reset(k)
		b.reset(k)
		for row := int32(0); row < 6; row++ {
			n := r.Intn(20)
			if trial%7 == 0 {
				n = 60 + r.Intn(140)
			}
			scores, ids := make([]float32, n), make([]int32, n)
			for j := range scores {
				// Few distinct scores, so the root is tied with most arrivals.
				scores[j] = float32(r.Intn(4))
				if r.Intn(8) == 0 {
					scores[j] = specials[r.Intn(len(specials))]
				}
				ids[j] = int32(j)
				if row%2 == 1 {
					ids[j] = int32(r.Intn(1000))
				}
			}
			base := 1000 * row
			if row%2 == 1 {
				rows.offerRow(&sel, scores, base, ids)
			} else {
				rows.offerRow(&sel, scores, base, nil)
			}
			for j, score := range scores {
				a.offer(base+ids[j], score)
				b.push(base+ids[j], score)
			}
		}
		want := takeAll(&b)
		for name, got := range map[string]TopKResult{"offer": takeAll(&a), "offerRow": takeAll(&rows)} {
			if len(got.IDs) != len(want.IDs) {
				t.Fatalf("trial %d: %s kept %d, push kept %d", trial, name, len(got.IDs), len(want.IDs))
			}
			for i := range want.IDs {
				if got.IDs[i] != want.IDs[i] || math.Float32bits(got.Scores[i]) != math.Float32bits(want.Scores[i]) {
					t.Fatalf("trial %d rank %d: %s (%d, %v), push (%d, %v)", trial, i, name, got.IDs[i], got.Scores[i], want.IDs[i], want.Scores[i])
				}
			}
		}
	}
}

// TestSelectProbesMatchesHeap: quickselect over probeKeys puts the same set
// of lists in front as the reference's bounded heap over (score, cell) pairs,
// for every width, over scores full of ties, ±0 (one score) and ±Inf; and a
// NaN score, for which the heap has no defined place, ranks after every
// number, by cell among NaNs.
func TestSelectProbesMatchesHeap(t *testing.T) {
	r := rng.New(23)
	inf := float32(math.Inf(1))
	for trial := 0; trial < 300; trial++ {
		lists := 1 + r.Intn(40)
		if trial%5 == 0 {
			lists = 100 + r.Intn(500)
		}
		scores := make([]float32, lists)
		for c := range scores {
			switch r.Intn(8) {
			case 0:
				scores[c] = float32(r.Intn(3)) - 1 // ties, and both zeros below
			case 1:
				scores[c] = float32(math.Copysign(0, -1))
			case 2:
				scores[c] = []float32{inf, -inf}[r.Intn(2)]
			default:
				scores[c] = r.NormFloat32()
			}
		}
		for _, nprobe := range []int{1, lists / 3, (lists*2 + 4) / 5, lists - 1, lists} {
			if nprobe < 1 {
				continue
			}
			keys, ref := make([]uint64, lists), make([]refProbe, lists)
			for c, s := range scores {
				keys[c], ref[c] = probeKey(int32(c), s), refProbe{cell: int32(c), score: s}
			}
			selectProbes(keys, nprobe)
			refSelectProbes(ref, nprobe)
			got, want := make([]int32, nprobe), make([]int32, nprobe)
			for i := range got {
				got[i], want[i] = int32(uint32(keys[i])), ref[i].cell
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d, %d of %d lists: quickselect chose %v, the heap %v (scores %v)", trial, nprobe, lists, got, want, scores)
			}
		}
	}

	nan := float32(math.NaN())
	scores := []float32{nan, 1, -inf, nan, 0.5, nan}
	keys := make([]uint64, len(scores))
	for c, s := range scores {
		keys[c] = probeKey(int32(c), s)
	}
	slices.Sort(keys)
	var order []int32
	for _, k := range keys {
		order = append(order, int32(uint32(k)))
	}
	if want := []int32{1, 4, 2, 0, 3, 5}; !slices.Equal(order, want) {
		t.Fatalf("probe order with NaN scores %v, want %v", order, want)
	}
}

// TestOfferTieBreak spells the boundary case out: a candidate tied with the
// root on score is not rejected early — it still displaces the root when its
// id is lower, and loses when its id is higher.
func TestOfferTieBreak(t *testing.T) {
	var h topkHeap
	h.reset(2)
	h.offer(7, 1)
	h.offer(9, 1)
	h.offer(3, 1) // ties the root (id 9) on score, wins on id
	h.offer(8, 1) // ties the root (id 7) on score, loses on id
	res := takeAll(&h)
	if len(res.IDs) != 2 || res.IDs[0] != 3 || res.IDs[1] != 7 {
		t.Fatalf("tied scores kept ids %v, want [3 7]", res.IDs)
	}
}
