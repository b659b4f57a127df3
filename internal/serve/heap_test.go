package serve

import (
	"math"
	"testing"

	"pbg/internal/rng"
)

func takeAll(h *topkHeap) TopKResult {
	var res TopKResult
	h.take(&res)
	return res
}

// TestOfferMatchesPush pins that the inlined fast reject in front of push
// changes nothing but the cost: over streams full of score ties and NaNs (for
// which "below the root" is false, so they must reach push, not be dropped)
// a heap fed through offer keeps exactly what one fed through push keeps.
func TestOfferMatchesPush(t *testing.T) {
	nan := float32(math.NaN())
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(6)
		var a, b topkHeap
		a.reset(k)
		b.reset(k)
		for id := int32(0); id < 40; id++ {
			// Few distinct scores, so the root is tied with most arrivals.
			score := float32(r.Intn(4))
			if r.Intn(8) == 0 {
				score = nan
			}
			a.offer(id, score)
			b.push(id, score)
		}
		got, want := takeAll(&a), takeAll(&b)
		if len(got.IDs) != len(want.IDs) {
			t.Fatalf("trial %d: offer kept %d, push kept %d", trial, len(got.IDs), len(want.IDs))
		}
		for i := range want.IDs {
			sameScore := got.Scores[i] == want.Scores[i] || (got.Scores[i] != got.Scores[i] && want.Scores[i] != want.Scores[i])
			if got.IDs[i] != want.IDs[i] || !sameScore {
				t.Fatalf("trial %d rank %d: offer (%d, %v), push (%d, %v)", trial, i, got.IDs[i], got.Scores[i], want.IDs[i], want.Scores[i])
			}
		}
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
