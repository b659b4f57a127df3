package partition

import (
	"testing"
	"testing/quick"
)

// Property: both orderings cover all buckets exactly once for arbitrary
// grid shapes and buffer sizes.
func TestOrderCoverageProperty(t *testing.T) {
	f := func(srcRaw, dstRaw, slotsRaw uint8) bool {
		nSrc := int(srcRaw)%10 + 1
		nDst := int(dstRaw)%10 + 1
		slots := int(slotsRaw) % 12
		for _, name := range []string{OrderInsideOut, OrderBudgetAware} {
			order, err := OrderForBuffer(name, nSrc, nDst, 0, slots)
			if err != nil || CheckGrid(order, nSrc, nDst) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: inside-out satisfies the §4.1 invariant on every square grid.
func TestInsideOutInvariantProperty(t *testing.T) {
	f := func(pRaw uint8) bool {
		p := int(pRaw)%16 + 1
		order, err := Order(OrderInsideOut, p, p, 0)
		if err != nil {
			return false
		}
		return CheckInvariant(order)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SwapCount is bounded below by the number of distinct partitions
// (each must be loaded at least once) and above by 2×buckets.
func TestSwapCountBoundsProperty(t *testing.T) {
	f := func(pRaw uint8, seed uint64) bool {
		p := int(pRaw)%8 + 1
		for _, order := range [][]Bucket{insideOut(p, p), rowMajor(p, p), shuffled(p, p, seed)} {
			swaps := SwapCount(order)
			if swaps < p || swaps > 2*len(order) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
