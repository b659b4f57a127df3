// Package partition implements §4.1 of the paper as pure functions of the
// partition grid: the division of edges into buckets by (source partition,
// destination partition), the orderings in which buckets are trained — most
// importantly the 'inside-out' order of Figure 1, which guarantees every
// bucket after the first touches at least one previously-trained partition
// — the swap-cost model that prices an order against a partition buffer,
// and the checks that an order covers its grid. It holds no state: in
// distributed mode the lock server (internal/dist) leases an order's
// buckets to trainers.
package partition

import "fmt"

// Bucket identifies one block of the adjacency matrix: source partition P1,
// destination partition P2.
type Bucket struct {
	P1, P2 int
}

// Index returns the linear index of b given nDst destination partitions.
func (b Bucket) Index(nDst int) int { return b.P1*nDst + b.P2 }

// String renders the bucket like "(1,2)".
func (b Bucket) String() string { return fmt.Sprintf("(%d,%d)", b.P1, b.P2) }

// Parts returns the set of distinct partitions the bucket touches. Source
// and destination partitions index the same space when both sides of a
// relation share an entity type; for mixed types the trainer maps them to
// per-type storage, but the locking and ordering logic operates on the
// combined coordinates, exactly as in the paper's single-entity exposition.
func (b Bucket) Parts() []int {
	if b.P1 == b.P2 {
		return []int{b.P1}
	}
	return []int{b.P1, b.P2}
}

// Disjoint reports whether two buckets share no partition (and can therefore
// train concurrently, Figure 1 left).
func (b Bucket) Disjoint(o Bucket) bool {
	return b.P1 != o.P1 && b.P1 != o.P2 && b.P2 != o.P1 && b.P2 != o.P2
}

// Ordering names accepted by Order, OrderForBuffer and PlanOrder. There are two
// orders: Figure 1's inside-out, and the one planned against the partition
// buffer (PlanBudgetAware), which is inside-out whenever there is no
// buffer to plan against. "" names the planned order.
const (
	OrderInsideOut = "inside_out"
	// OrderBudgetAware optimises the bucket sequence against a bounded
	// partition buffer (Marius-style BETA ordering): PlanBudgetAware picks
	// the cheapest of inside-out, the greedy search (small grids only) and
	// the closed-form grouped schedule under the SwapCostUnderBuffer model.
	// Through plain Order — which has no buffer size to optimise against —
	// it is inside_out.
	OrderBudgetAware = "budget_aware"
)

// Order returns the list of all nSrc×nDst buckets in the named order with
// no partition buffer to plan against; see OrderForBuffer. seed is unused:
// neither order is random.
func Order(name string, nSrc, nDst int, seed uint64) ([]Bucket, error) {
	return OrderForBuffer(name, nSrc, nDst, seed, 0)
}

// OrderForBuffer is Order parameterized by the partition buffer capacity:
// slots is how many partitions the training machine can hold resident at
// once (train.BufferSlotsFor prices it from a memory budget). It returns
// PlanOrder's order; seed is unused.
func OrderForBuffer(name string, nSrc, nDst int, seed uint64, slots int) ([]Bucket, error) {
	plan, err := PlanOrder(name, nSrc, nDst, slots)
	return plan.Order, err
}

// PlanOrder plans the named order over a buffer of slots partitions. ""
// and "budget_aware" are PlanBudgetAware's plan, which is inside_out with
// slots <= 0 (no budget) or a buffer that already holds every partition;
// "inside_out" is Figure 1's order whatever the buffer, priced under it.
// Any other name is an error.
func PlanOrder(name string, nSrc, nDst, slots int) (OrderPlan, error) {
	if nSrc <= 0 || nDst <= 0 {
		return OrderPlan{}, fmt.Errorf("partition: non-positive partition counts %d×%d", nSrc, nDst)
	}
	switch name {
	case "", OrderBudgetAware:
		return PlanBudgetAware(nSrc, nDst, slots), nil
	case OrderInsideOut:
		return insideOutPlan(nSrc, nDst, slots), nil
	default:
		return OrderPlan{}, fmt.Errorf("partition: unknown ordering %q (want %q or %q)", name, OrderInsideOut, OrderBudgetAware)
	}
}

// insideOut produces the Figure 1 (right) ordering: growing square shells
// from (0,0). Shell k contributes (0,k), (1,k), …, (k,k), (k,k−1), …, (k,0);
// consecutive buckets share a partition, so swaps are minimised, and every
// bucket after the first touches a previously-trained partition.
func insideOut(nSrc, nDst int) []Bucket {
	maxP := max(nSrc, nDst)
	out := make([]Bucket, 0, nSrc*nDst)
	add := func(b Bucket) {
		if b.P1 < nSrc && b.P2 < nDst {
			out = append(out, b)
		}
	}
	for k := 0; k < maxP; k++ {
		for i := 0; i <= k; i++ {
			add(Bucket{i, k})
		}
		for j := k - 1; j >= 0; j-- {
			add(Bucket{k, j})
		}
	}
	return out
}

// CheckInGrid returns an error if buckets names a bucket outside the
// nSrc×nDst grid or names one bucket twice.
func CheckInGrid(buckets []Bucket, nSrc, nDst int) error {
	seen := make(map[Bucket]bool, len(buckets))
	for _, b := range buckets {
		if b.P1 < 0 || b.P1 >= nSrc || b.P2 < 0 || b.P2 >= nDst {
			return fmt.Errorf("partition: bucket %v is outside the %d×%d grid", b, nSrc, nDst)
		}
		if seen[b] {
			return fmt.Errorf("partition: bucket %v is listed twice", b)
		}
		seen[b] = true
	}
	return nil
}

// CheckGrid returns an error unless order lists every bucket of the
// nSrc×nDst grid exactly once. An order that misses buckets would train
// part of the graph and report the epoch complete; one past the grid names
// partitions no store holds.
func CheckGrid(order []Bucket, nSrc, nDst int) error {
	if err := CheckInGrid(order, nSrc, nDst); err != nil {
		return err
	}
	if len(order) != nSrc*nDst {
		return fmt.Errorf("partition: the order has %d buckets, the %d×%d grid has %d", len(order), nSrc, nDst, nSrc*nDst)
	}
	return nil
}
