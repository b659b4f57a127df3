package partition

import "fmt"

// The closed-form BETA-style ordering (Marius, Mohoney et al., OSDI 2021) —
// the large-grid complement to OptimizeOrder's greedy search. The greedy
// optimiser walks every pending bucket per step, which is near-quadratic in
// the bucket count: ordering a 96×96 grid takes ~0.7s, and its capped gain
// heuristic stops finding the blocked structure on big grids (722 loads at
// P=64 with 8 slots where the closed form needs under 400). GroupedOrder
// computes a buffer-aware schedule directly in O(P²): it pins a group of
// partitions resident and rotates every earlier partition through the spare
// slots.
//
// PlanBudgetAware prices it against inside-out (and the greedy search on
// grids small enough to afford it) under SwapCostUnderBuffer and returns
// the cheapest, so OrderForBuffer("budget_aware", …) is never worse than
// inside-out and costs milliseconds even at P=128.

// groupedMinSlots is the smallest buffer GroupedOrder is defined for: one
// pinned partition plus two rotating slots.
const groupedMinSlots = 3

// GroupedOrder returns all nSrc×nDst buckets in the closed-form grouped
// (BETA-style) order for a machine holding `slots` partitions resident:
// partitions are split into groups sized to the buffer; each group's
// super-step first sweeps every earlier partition through the rotating
// slots — so each group pair is visited exactly once, with one group
// pinned and the other rotating — and then emits the group's intra-group
// block while the group is still resident. The result is a permutation of
// the full bucket grid that satisfies the §4.1 invariant: the first bucket
// of every super-step after the first touches rotator 0, which was trained
// in group 0's block.
//
// One subtlety separates this from the textbook BETA construction. Marius
// pins slots-1 partitions and rotates the single remaining slot; under the
// strict-LRU buffer that SwapCostUnderBuffer models, that schedule
// thrashes — the rotating partition is always the most recently used, so
// LRU evicts a pinned group member instead and reloads it a bucket later,
// doubling the rotation cost. Pinning slots-2 and leaving TWO rotating
// slots restores one-load-per-rotation behaviour: while rotator q_k sweeps
// the group, its predecessor q_{k-1} stays resident and the one before
// that, q_{k-2}, becomes the genuine LRU victim exactly when q_{k+1}
// arrives. The smaller group costs ≈ P²/(2(slots-2)) loads instead of the
// ideal P²/(2(slots-1)), but an LRU cache actually delivers it, which the
// ideal pinned schedule cannot.
//
// With slots < 3, or a buffer that already holds every partition, there is
// no rotation structure to exploit and the inside-out order is returned.
func GroupedOrder(nSrc, nDst, slots int) []Bucket {
	p := max(nSrc, nDst)
	if slots < groupedMinSlots || slots >= p {
		return insideOut(nSrc, nDst)
	}
	groupSize := slots - 2
	if slots == groupedMinSlots {
		// With three slots, a pair group and a single rotating slot still
		// run at one load per rotation: a rotator's last bucket stamps it
		// and the second group member together, and SwapCostUnderBuffer
		// breaks the tie toward the lower partition number — always the
		// rotator, which comes from an earlier group. (For larger groups
		// the mid-group members go stale mid-sweep and a single spare slot
		// thrashes, hence slots-2 above.)
		groupSize = 2
	}
	out := make([]Bucket, 0, nSrc*nDst)
	add := func(b Bucket) {
		if b.P1 < nSrc && b.P2 < nDst {
			out = append(out, b)
		}
	}
	for start := 0; start < p; start += groupSize {
		end := start + groupSize
		if end > p {
			end = p
		}
		// Rotation sweeps: every partition trained in an earlier super-step
		// rotates through the spare slots against the pinned group. The
		// (g,q) and (q,g) buckets are interleaved so the rotator is touched
		// on every bucket and the group members in ascending stamp order.
		for q := 0; q < start; q++ {
			for g := start; g < end; g++ {
				add(Bucket{g, q})
				add(Bucket{q, g})
			}
		}
		// Intra-group block, emitted while the whole group is resident.
		// The inside-out shell pattern keeps the §4.1 invariant within the
		// block (group 0 has no rotation sweep to ground it).
		for _, b := range insideOut(end-start, end-start) {
			add(Bucket{start + b.P1, start + b.P2})
		}
	}
	return out
}

// greedyOrderMaxBuckets caps the grid size on which PlanBudgetAware still
// runs the greedy OptimizeOrder search. The search is near-quadratic in
// the bucket count (~20ms at 32×32, ~0.7s at 96×96, ~1.5s at 128×128);
// past this cutoff only the O(P²) grouped order competes with inside-out,
// keeping budget_aware ordering in the low milliseconds on the grids the
// paper targets. The cutoff sits past the measured crossover (~P=32
// square) where the grouped order starts beating the capped greedy search
// anyway.
const greedyOrderMaxBuckets = 1024

// Strategies PlanBudgetAware chooses between, recorded in OrderPlan.
const (
	StrategyInsideOut = "inside_out"
	StrategyGreedy    = "greedy"
	StrategyGrouped   = "grouped"
)

// OrderPlan is the outcome of planning a budget_aware order: the chosen
// bucket sequence plus how it was chosen, for CLIs and benchmarks that
// want to report the decision.
type OrderPlan struct {
	Order    []Bucket
	Strategy string // StrategyInsideOut, StrategyGreedy or StrategyGrouped
	Cost     int    // SwapCostUnderBuffer(Order, Slots); 0 when unbounded
	BaseCost int    // inside_out's cost under the same buffer; 0 when unbounded
	Slots    int
}

// String is the plan in one line, as the CLIs print it.
func (p OrderPlan) String() string {
	switch {
	case p.Slots <= 0:
		return "inside_out (no partition buffer to plan against)"
	case p.BaseCost == 0:
		return fmt.Sprintf("inside_out (%d partition slots hold every partition)", p.Slots)
	}
	return fmt.Sprintf("%s over %d partition slots (%d projected loads, inside_out %d)", p.Strategy, p.Slots, p.Cost, p.BaseCost)
}

// insideOutPlan is Figure 1's order over a buffer of slots partitions,
// priced when the buffer is bounded: set, and smaller than the partitions
// the grid touches.
func insideOutPlan(nSrc, nDst, slots int) OrderPlan {
	io := insideOut(nSrc, nDst)
	plan := OrderPlan{Order: io, Strategy: StrategyInsideOut, Slots: slots}
	if slots > 0 && slots < distinctParts(io) {
		plan.BaseCost = SwapCostUnderBuffer(io, slots)
		plan.Cost = plan.BaseCost
	}
	return plan
}

// PlanBudgetAware builds the budget_aware order for an nSrc×nDst bucket
// grid and a buffer of `slots` resident partitions, and reports which
// strategy won. The grid size picks the candidates: the greedy
// OptimizeOrder search on grids of at most greedyOrderMaxBuckets buckets,
// the closed-form GroupedOrder on every grid. Each is priced with
// SwapCostUnderBuffer and the cheapest wins, with inside-out as the floor
// (so the result never costs more than Figure 1's order). Grouped is chosen
// over the greedy search only by strictly beating it. With slots <= 0 or a
// buffer that already holds every partition there is nothing to optimise
// and the plan is inside-out.
func PlanBudgetAware(nSrc, nDst, slots int) OrderPlan {
	plan := insideOutPlan(nSrc, nDst, slots)
	if plan.BaseCost == 0 {
		return plan
	}
	base := plan.Order
	consider := func(order []Bucket, strategy string) {
		if c := SwapCostUnderBuffer(order, slots); c < plan.Cost {
			plan.Order, plan.Strategy, plan.Cost = order, strategy, c
		}
	}
	if len(base) <= greedyOrderMaxBuckets {
		consider(OptimizeOrder(base, slots), StrategyGreedy)
	}
	// Strict improvement required: on a cost tie the earlier candidate is
	// kept, so the grouped order displaces the greedy search (or
	// inside-out) only by winning outright.
	consider(GroupedOrder(nSrc, nDst, slots), StrategyGrouped)
	return plan
}
