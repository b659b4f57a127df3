package train

import (
	"testing"
	"time"

	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

func TestConfigLookaheadDefaults(t *testing.T) {
	// Without a budget, adaptivity defaults off: the cap equals the initial
	// depth, preserving the fixed two-partition footprint of unbudgeted runs.
	c := Config{}.withDefaults()
	if c.Lookahead != 1 || c.MaxLookahead != 1 {
		t.Fatalf("unbudgeted defaults wrong: Lookahead=%d MaxLookahead=%d", c.Lookahead, c.MaxLookahead)
	}
	// A budget turns the adaptive default on.
	c = Config{MemBudgetBytes: 1 << 20}.withDefaults()
	if c.Lookahead != 1 || c.MaxLookahead != defaultMaxLookahead {
		t.Fatalf("budgeted defaults wrong: Lookahead=%d MaxLookahead=%d", c.Lookahead, c.MaxLookahead)
	}
	// A large initial depth raises the default cap with it.
	c = Config{Lookahead: 6, MemBudgetBytes: 1 << 20}.withDefaults()
	if c.MaxLookahead != 6 {
		t.Fatalf("MaxLookahead = %d, want 6", c.MaxLookahead)
	}
	// An explicit cap clamps the initial depth.
	c = Config{Lookahead: 3, MaxLookahead: 2}.withDefaults()
	if c.Lookahead != 2 || c.MaxLookahead != 2 {
		t.Fatalf("clamp wrong: Lookahead=%d MaxLookahead=%d", c.Lookahead, c.MaxLookahead)
	}
}

func controllerTrainer(t *testing.T, cfg Config) *Trainer {
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

func TestControllerWidensOnIOWaitUpToCap(t *testing.T) {
	tr := controllerTrainer(t, Config{Lookahead: 1, MaxLookahead: 3})
	// 50% IOWait: clearly I/O bound, unbounded budget → widen each epoch.
	for want := 2; want <= 3; want++ {
		st := EpochStats{IOWait: 50 * time.Millisecond, Compute: 50 * time.Millisecond}
		tr.adaptLookahead(&st)
		if st.LookaheadAction != "widen" || tr.Lookahead() != want {
			t.Fatalf("want widen to %d, got %q at %d", want, st.LookaheadAction, tr.Lookahead())
		}
	}
	// At the cap the controller holds.
	st := EpochStats{IOWait: 50 * time.Millisecond, Compute: 50 * time.Millisecond}
	tr.adaptLookahead(&st)
	if st.LookaheadAction != "hold" || tr.Lookahead() != 3 {
		t.Fatalf("want hold at cap, got %q at %d", st.LookaheadAction, tr.Lookahead())
	}
}

func TestControllerHoldsWhenComputeBound(t *testing.T) {
	tr := controllerTrainer(t, Config{Lookahead: 1, MaxLookahead: 3})
	st := EpochStats{IOWait: 1 * time.Millisecond, Compute: 100 * time.Millisecond}
	tr.adaptLookahead(&st)
	if st.LookaheadAction != "hold" || tr.Lookahead() != 1 {
		t.Fatalf("want hold (1%% iowait), got %q at %d", st.LookaheadAction, tr.Lookahead())
	}
}

func TestControllerNarrowsWhenBudgetBinds(t *testing.T) {
	// Price the windows on a probe trainer, then build the real one with a
	// budget that fits lookahead 1 exactly.
	probe := controllerTrainer(t, Config{})
	budget := probe.windowBytes(1) + probe.maxShardBytes()
	tr := controllerTrainer(t, Config{Lookahead: 1, MaxLookahead: 3, MemBudgetBytes: budget})
	if tr.Lookahead() != 1 {
		t.Fatalf("initial lookahead %d, want 1 (budget fits it)", tr.Lookahead())
	}
	// The store ran over budget this epoch: the budget binds → narrow.
	st := EpochStats{ResidentHighWater: budget + 1, IOWait: 50 * time.Millisecond, Compute: 50 * time.Millisecond}
	tr.adaptLookahead(&st)
	if st.LookaheadAction != "narrow" || tr.Lookahead() != 0 {
		t.Fatalf("want narrow to 0, got %q at %d", st.LookaheadAction, tr.Lookahead())
	}
	// High IOWait cannot widen past what the budget's projection allows:
	// lookahead 1 fits again, 2 would not.
	st = EpochStats{IOWait: 50 * time.Millisecond, Compute: 50 * time.Millisecond}
	tr.adaptLookahead(&st)
	if st.LookaheadAction != "widen" || tr.Lookahead() != 1 {
		t.Fatalf("want widen back to 1, got %q at %d", st.LookaheadAction, tr.Lookahead())
	}
	st = EpochStats{IOWait: 50 * time.Millisecond, Compute: 50 * time.Millisecond}
	tr.adaptLookahead(&st)
	if st.LookaheadAction != "hold" || tr.Lookahead() != 1 {
		t.Fatalf("budget projection must block widening to 2: got %q at %d", st.LookaheadAction, tr.Lookahead())
	}
}

func TestControllerInitClampsToTightBudget(t *testing.T) {
	probe := controllerTrainer(t, Config{})
	// Budget admits exactly one bucket's working set plus the in-flight
	// allowance: any lookahead > 0 must be clamped away before epoch 1.
	budget := probe.windowBytes(0) + probe.maxShardBytes()
	tr := controllerTrainer(t, Config{Lookahead: 3, MaxLookahead: 4, MemBudgetBytes: budget})
	if tr.Lookahead() != 0 {
		t.Fatalf("initial lookahead %d, want 0 under a one-bucket budget", tr.Lookahead())
	}
}

func TestWindowBytesMonotonic(t *testing.T) {
	tr := controllerTrainer(t, Config{})
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

// TestEpochStatsReportController checks the decision and high-water land in
// EpochStats where pbg-train prints them.
func TestEpochStatsReportController(t *testing.T) {
	g := smallSocial(t, 4)
	store := storetest.NewDisk(t, "", g.Schema, 16, 7, 1)
	tr, err := New(g, store, Config{Dim: 16, Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.LookaheadAction == "" {
			t.Fatalf("epoch %d missing controller decision", st.Epoch)
		}
		if st.ResidentHighWater <= 0 {
			t.Fatalf("epoch %d missing resident high-water", st.Epoch)
		}
	}
	if stats[0].Lookahead != 1 {
		t.Fatalf("epoch 0 lookahead %d, want the initial 1", stats[0].Lookahead)
	}
}
