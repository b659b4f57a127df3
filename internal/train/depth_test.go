package train

import (
	"testing"

	"pbg/internal/graph"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

// roomy is a budget no 4×4 test grid comes near: the depth reaches its cap,
// and the planned order is inside-out (the buffer holds every partition).
const roomy = 1 << 30

func TestConfigLookaheadDefaults(t *testing.T) {
	// Without a budget the depth is 1, preserving the fixed two-partition
	// footprint of unbudgeted runs.
	if tr := depthTrainer(t, Config{}); tr.Lookahead() != 1 {
		t.Fatalf("unbudgeted depth %d, want 1", tr.Lookahead())
	}
	// A budget that fits every window buys the deepest one.
	if tr := depthTrainer(t, Config{MemBudgetBytes: roomy}); tr.Lookahead() != maxLookahead {
		t.Fatalf("roomy-budget depth %d, want the cap %d", tr.Lookahead(), maxLookahead)
	}
}

func depthTrainer(t *testing.T, cfg Config) *Trainer {
	t.Helper()
	g := smallSocial(t, 4)
	if cfg.Dim == 0 {
		cfg.Dim = 16
	}
	store := storage.NewMemStore(g.Schema, cfg.Dim, 7, 1)
	tr, err := New(g, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestLookaheadIsTheDeepestWindowTheBudgetFits prices every window on a
// probe trainer, then builds one trainer per budget at and one byte under
// each window plus the in-flight allowance. A budget of exactly
// windowBytes(L) + allowance buys depth L — or deeper, where the deeper
// windows cost no more (on a 4×4 grid three buckets already touch every
// partition) — one byte less buys only the windows that still fit, and a
// budget that holds one bucket's working set buys 0. Both train inside-out,
// so the windows priced are the windows run.
func TestLookaheadIsTheDeepestWindowTheBudgetFits(t *testing.T) {
	probe := depthTrainer(t, Config{})
	allowance := probe.maxShardBytes()
	var window [maxLookahead + 1]int64
	for L := range window {
		window[L] = probe.windowBytes(L) + allowance
	}
	deepest := func(budget int64) int {
		L := 0
		for L < maxLookahead && window[L+1] <= budget {
			L++
		}
		return L
	}
	if window[0] == window[1] || window[1] == window[maxLookahead] {
		t.Fatalf("windows %v do not separate depths 0, 1 and the cap", window)
	}
	for L, w := range window {
		for _, budget := range []int64{w, w - 1} {
			if got, want := depthTrainer(t, Config{MemBudgetBytes: budget, BucketOrder: partition.OrderInsideOut}).Lookahead(), deepest(budget); got != want {
				t.Errorf("budget %d (windowBytes(%d) + allowance %+d): depth %d, want %d", budget, L, budget-w, got, want)
			}
		}
	}
	if got := depthTrainer(t, Config{MemBudgetBytes: window[0]}).Lookahead(); got != 0 {
		t.Errorf("one-bucket budget %d: depth %d, want 0", window[0], got)
	}
}

// TestSocialOOCShapePicksDepthTwo pins the depth of the benchmark's
// social_ooc shape — 48 000 nodes in 16 partitions, d = 128, a budget of six
// shards, the planned order — from the schema alone: a window of three
// buckets plus the in-flight shard fills the budget exactly, a fourth
// bucket's shards would not fit. One edge per bucket makes every bucket part
// of the epoch, as the generated graph does.
func TestSocialOOCShapePicksDepthTwo(t *testing.T) {
	const nodes, parts, dim = 48000, 16, 128
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: nodes, NumPartitions: parts}},
		[]graph.RelationType{{Name: "follows", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	el := &graph.EdgeList{}
	size := int32(nodes / parts)
	for p1 := int32(0); p1 < parts; p1++ {
		for p2 := int32(0); p2 < parts; p2++ {
			el.Srcs, el.Rels, el.Dsts = append(el.Srcs, p1*size), append(el.Rels, 0), append(el.Dsts, p2*size)
		}
	}
	g, err := graph.NewGraph(schema, el)
	if err != nil {
		t.Fatal(err)
	}
	shard := storage.ProjectedShardBytes(schema, dim, 0, 0)
	tr, err := New(g, storage.NewMemStore(schema, dim, 7, 1), Config{
		Dim: dim, MemBudgetBytes: 6 * shard, BucketOrder: partition.OrderBudgetAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Lookahead() != 2 {
		t.Fatalf("social_ooc shape picks depth %d, want 2", tr.Lookahead())
	}
	// ARCHITECTURE's window table, in shards: window plus allowance.
	for L, want := range []int64{3, 5, 6, 7, 7} {
		if got := tr.windowBytes(L) + tr.maxShardBytes(); got != want*shard {
			t.Errorf("depth %d projects %d bytes with the allowance, want %d shards (%d)", L, got, want, want*shard)
		}
	}
}

// TestControllerWidensOnIOWaitUpToCap checks the depth stops at the cap: a
// budget that would fit an even deeper window still buys maxLookahead, from
// New on, with no I/O-bound epochs needed to get there.
func TestControllerWidensOnIOWaitUpToCap(t *testing.T) {
	tr := depthTrainer(t, Config{MemBudgetBytes: roomy})
	if beyond := tr.windowBytes(maxLookahead+1) + tr.maxShardBytes(); beyond > roomy {
		t.Fatalf("roomy budget %d does not fit a window past the cap (%d bytes)", int64(roomy), beyond)
	}
	if tr.Lookahead() != maxLookahead {
		t.Fatalf("roomy-budget depth %d, want the cap %d", tr.Lookahead(), maxLookahead)
	}
}

// TestControllerNarrowsWhenBudgetBinds checks a budget that fits lookahead 1
// exactly buys depth 1 and no deeper, and one byte less buys 0. Both train
// inside-out so the windows priced are the windows run.
func TestControllerNarrowsWhenBudgetBinds(t *testing.T) {
	probe := depthTrainer(t, Config{})
	budget := probe.windowBytes(1) + probe.maxShardBytes()
	if got := depthTrainer(t, Config{MemBudgetBytes: budget, BucketOrder: partition.OrderInsideOut}).Lookahead(); got != 1 {
		t.Fatalf("budget fitting lookahead 1 exactly: depth %d, want 1", got)
	}
	if got := depthTrainer(t, Config{MemBudgetBytes: budget - 1, BucketOrder: partition.OrderInsideOut}).Lookahead(); got != 0 {
		t.Fatalf("budget one byte under lookahead 1: depth %d, want 0", got)
	}
}

func TestControllerInitClampsToTightBudget(t *testing.T) {
	probe := depthTrainer(t, Config{})
	// Budget admits exactly one bucket's working set plus the in-flight
	// allowance: any lookahead > 0 must be clamped away before epoch 0.
	budget := probe.windowBytes(0) + probe.maxShardBytes()
	if got := depthTrainer(t, Config{MemBudgetBytes: budget}).Lookahead(); got != 0 {
		t.Fatalf("initial lookahead %d, want 0 under a one-bucket budget", got)
	}
}

func TestWindowBytesMonotonic(t *testing.T) {
	tr := depthTrainer(t, Config{})
	w0, w1, w2 := tr.windowBytes(0), tr.windowBytes(1), tr.windowBytes(2)
	if w0 <= 0 || w0 > w1 || w1 > w2 {
		t.Fatalf("window projections not monotonic: %d, %d, %d", w0, w1, w2)
	}
	// A bucket of the 4×4 grid touches two distinct node shards.
	shard := tr.shardKeyBytes(shardKey{0, 0})
	if w0 != 2*shard {
		t.Fatalf("windowBytes(0) = %d, want two shards (%d)", w0, 2*shard)
	}
}

// TestEpochStatsReportLookahead checks the depth and high-water land in
// EpochStats where pbg train prints them, and that the depth New picked is
// the depth every epoch runs at, from epoch 0.
func TestEpochStatsReportLookahead(t *testing.T) {
	g := smallSocial(t, 4)
	store := storetest.NewDisk(t, "", g.Schema, 16, 7, 1)
	tr, err := New(g, store, Config{Dim: 16, Epochs: 3, Seed: 3, MemBudgetBytes: roomy})
	if err != nil {
		t.Fatal(err)
	}
	picked := tr.Lookahead()
	if picked != maxLookahead {
		t.Fatalf("roomy-budget depth %d, want %d", picked, maxLookahead)
	}
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.Lookahead != picked {
			t.Fatalf("epoch %d ran at depth %d, New picked %d", st.Epoch, st.Lookahead, picked)
		}
		if st.ResidentHighWater <= 0 {
			t.Fatalf("epoch %d missing resident high-water", st.Epoch)
		}
	}
	if tr.Lookahead() != picked {
		t.Fatalf("depth moved from %d to %d over training", picked, tr.Lookahead())
	}
}
