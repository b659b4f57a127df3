package partition

import (
	"strings"
	"testing"

	"pbg/internal/rng"
)

// rowMajor lists the nSrc×nDst grid row by row: a valid order that no
// planner produces, for tests that need one.
func rowMajor(nSrc, nDst int) []Bucket {
	out := make([]Bucket, 0, nSrc*nDst)
	for i := 0; i < nSrc; i++ {
		for j := 0; j < nDst; j++ {
			out = append(out, Bucket{i, j})
		}
	}
	return out
}

// CheckInvariant reports whether every bucket after the first touches at
// least one partition that appeared in an earlier bucket — the alignment
// condition of §4.1 that keeps all partitions in one embedding space.
func CheckInvariant(order []Bucket) bool {
	if len(order) <= 1 {
		return true
	}
	seen := map[int]bool{}
	for i, b := range order {
		if i > 0 && !seen[b.P1] && !seen[b.P2] {
			return false
		}
		seen[b.P1] = true
		seen[b.P2] = true
	}
	return true
}

// SwapCount simulates executing the order on a single machine that holds
// only the partitions of the current bucket in memory, and returns the
// number of partition loads from disk (the I/O the inside-out order
// minimises).
func SwapCount(order []Bucket) int {
	held := map[int]bool{}
	loads := 0
	for _, b := range order {
		need := map[int]bool{}
		for _, p := range b.Parts() {
			need[p] = true
			if !held[p] {
				loads++
			}
		}
		held = need
	}
	return loads
}

// shuffled is the grid in a seeded random order.
func shuffled(nSrc, nDst int, seed uint64) []Bucket {
	out := rowMajor(nSrc, nDst)
	rng.New(seed).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestOrderCoversAllBuckets(t *testing.T) {
	for _, name := range []string{"", OrderInsideOut, OrderBudgetAware} {
		for _, dims := range [][2]int{{1, 1}, {3, 3}, {4, 1}, {1, 4}, {2, 5}} {
			for _, slots := range []int{0, 3} {
				order, err := OrderForBuffer(name, dims[0], dims[1], 7, slots)
				if err != nil {
					t.Fatal(err)
				}
				if err := CheckGrid(order, dims[0], dims[1]); err != nil {
					t.Fatalf("%q %v slots=%d: %v", name, dims, slots, err)
				}
			}
		}
	}
}

// TestCheckGrid pins the one check every order passes before training:
// the whole grid, each bucket once.
func TestCheckGrid(t *testing.T) {
	if err := CheckGrid(rowMajor(2, 3), 2, 3); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		order      []Bucket
		nSrc, nDst int
		want       string
	}{
		"short":     {rowMajor(2, 2), 4, 4, "has 4 buckets"},
		"past grid": {rowMajor(4, 4), 2, 2, "outside"},
		"negative":  {[]Bucket{{-1, 0}}, 1, 1, "outside"},
		"duplicate": {[]Bucket{{0, 0}, {0, 1}, {0, 1}, {1, 1}}, 2, 2, "twice"},
	} {
		err := CheckGrid(c.order, c.nSrc, c.nDst)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckGrid = %v, want an error mentioning %q", name, err, c.want)
		}
	}
	// A part of an order passes the in-grid half alone.
	if err := CheckInGrid(rowMajor(1, 2), 2, 2); err != nil {
		t.Fatal(err)
	}
}

func TestOrderUnknownName(t *testing.T) {
	if _, err := Order("spiral", 2, 2, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestOrderBadDims(t *testing.T) {
	if _, err := Order(OrderInsideOut, 0, 2, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestInsideOutStartsAtOrigin(t *testing.T) {
	order, _ := Order(OrderInsideOut, 4, 4, 0)
	if order[0] != (Bucket{0, 0}) {
		t.Fatalf("first bucket = %v, want (0,0)", order[0])
	}
}

func TestInsideOutSatisfiesInvariant(t *testing.T) {
	for p := 1; p <= 8; p++ {
		order, _ := Order(OrderInsideOut, p, p, 0)
		if !CheckInvariant(order) {
			t.Fatalf("inside-out violates invariant at P=%d: %v", p, order)
		}
	}
}

func TestInsideOutConsecutiveShare(t *testing.T) {
	// The stronger property that makes inside-out swap-efficient:
	// consecutive buckets share a partition.
	order, _ := Order(OrderInsideOut, 6, 6, 0)
	for i := 1; i < len(order); i++ {
		a, b := order[i-1], order[i]
		if a.P1 != b.P1 && a.P1 != b.P2 && a.P2 != b.P1 && a.P2 != b.P2 {
			t.Fatalf("buckets %d,%d (%v → %v) share nothing", i-1, i, a, b)
		}
	}
}

func TestCheckInvariantDetectsViolation(t *testing.T) {
	bad := []Bucket{{0, 0}, {2, 3}} // second touches two fresh partitions
	if CheckInvariant(bad) {
		t.Fatal("violation not detected")
	}
	good := []Bucket{{0, 0}, {0, 3}, {3, 2}}
	if !CheckInvariant(good) {
		t.Fatal("valid order rejected")
	}
}

// TestSwapCountInsideOutBeatsRandom is Figure 1's claim: inside-out makes
// fewer swaps than random orders of the same grid and satisfies the §4.1
// invariant, which a random order can violate.
func TestSwapCountInsideOutBeatsRandom(t *testing.T) {
	const p = 8
	io, _ := Order(OrderInsideOut, p, p, 0)
	if !CheckInvariant(io) {
		t.Fatal("inside-out violates the invariant")
	}
	// Average several random orders to avoid a lucky shuffle.
	randTotal, violations := 0, 0
	const tries = 5
	for s := uint64(0); s < tries; s++ {
		ro := shuffled(p, p, s)
		randTotal += SwapCount(ro)
		if !CheckInvariant(ro) {
			violations++
		}
	}
	ioSwaps := SwapCount(io)
	randAvg := randTotal / tries
	if ioSwaps >= randAvg {
		t.Fatalf("inside-out swaps %d not better than random avg %d", ioSwaps, randAvg)
	}
	if violations == 0 {
		t.Fatalf("none of %d random orders violates the invariant", tries)
	}
}

func TestSwapCountExact(t *testing.T) {
	// (0,0): load 0 → 1 load. (0,1): keep 0, load 1 → 1. (1,1): keep 1,
	// drop 0 → 1... wait (1,1) needs only partition 1, held {0,1} → 0 loads.
	order := []Bucket{{0, 0}, {0, 1}, {1, 1}}
	if got := SwapCount(order); got != 2 {
		t.Fatalf("SwapCount = %d, want 2", got)
	}
}

func TestBucketDisjoint(t *testing.T) {
	if !(Bucket{0, 1}).Disjoint(Bucket{2, 3}) {
		t.Fatal("disjoint buckets reported overlapping")
	}
	if (Bucket{0, 1}).Disjoint(Bucket{1, 2}) {
		t.Fatal("overlapping buckets reported disjoint")
	}
	if (Bucket{0, 1}).Disjoint(Bucket{2, 0}) {
		t.Fatal("cross overlap missed")
	}
}

func TestBucketParts(t *testing.T) {
	if got := (Bucket{2, 2}).Parts(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Parts = %v", got)
	}
	if got := (Bucket{1, 3}).Parts(); len(got) != 2 {
		t.Fatalf("Parts = %v", got)
	}
}

func TestBucketIndex(t *testing.T) {
	if (Bucket{2, 3}).Index(4) != 11 {
		t.Fatalf("Index = %d, want 11", (Bucket{2, 3}).Index(4))
	}
}
