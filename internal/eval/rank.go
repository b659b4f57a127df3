package eval

// This file holds the ranking-tie conventions shared between evaluation and
// the serving layer. Both must agree on what a tie means: evaluation turns
// ties into fractional mid-ranks (so a constant scorer cannot fake a perfect
// MRR), and serve's top-K selection breaks ties deterministically (so two
// replicas answering the same query return the same neighbour list). Keeping
// both rules here, next to each other, is what pins them together — a latent
// eval/serve mismatch (serve preferring high IDs, eval counting ties as
// wins) would silently make served neighbour lists irreproducible against
// offline evaluation numbers.

// MidRank returns the mid-rank of trueScore among the candidate scores:
// rank = 1 + |{score > true}| + |{score = true}|/2. A candidate scoring
// exactly the true score contributes half a rank position, so a degenerate
// constant scorer gets rank 1+K/2 (MRR ≈ 2/(K+2)) instead of a fake perfect
// 1. Used by the eval Ranker and by serve.Server.Rank.
func MidRank(trueScore float32, scores []float32) float64 {
	greater, equal := 0, 0
	for _, v := range scores {
		switch {
		case v > trueScore:
			greater++
		case v == trueScore:
			equal++
		}
	}
	return 1 + float64(greater) + float64(equal)/2
}

// CompareScored is the deterministic candidate ordering for top-K results:
// higher score first, ties broken by lower entity ID. It reports whether
// candidate (scoreI, idI) ranks strictly before (scoreJ, idJ). Serve's
// top-K heaps and the brute-force Oracle of serve's tests (fixture_test.go)
// both sort with it, so a tied boundary can never make the two disagree on
// membership.
func CompareScored(scoreI float32, idI int32, scoreJ float32, idJ int32) bool {
	if scoreI != scoreJ {
		return scoreI > scoreJ
	}
	return idI < idJ
}
