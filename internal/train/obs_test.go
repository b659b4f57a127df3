package train

import (
	"strings"
	"testing"
	"time"

	"pbg/internal/obs"
	"pbg/internal/storage/storetest"
)

// TestTrainerRecordsMetrics trains a partitioned graph over a DiskStore with
// a shared hub and checks the trainer's metrics agree with the EpochStats it
// returned — the stats are a thin view over the same registry — and that
// the storage counters landed in the shared registry via SetObs plumbing.
func TestTrainerRecordsMetrics(t *testing.T) {
	hub := obs.NewHub()
	g := smallSocial(t, 4)
	store := storetest.NewDisk(t, "", g.Schema, 16, 7, 1)
	tr, err := New(g, store, Config{Dim: 16, Epochs: 2, Seed: 3, Obs: hub})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Train(nil)
	if err != nil {
		t.Fatal(err)
	}

	snap := hub.Reg.Snapshot()
	var edges, swaps int
	var swapIn int64
	for _, s := range stats {
		edges += s.Edges
		swaps += s.PartitionIO
		swapIn += s.SwapIn
	}
	if got := snap.Counters["pbg_train_edges_total"]; got != int64(edges) {
		t.Errorf("edges counter = %d, want %d", got, edges)
	}
	if got := snap.Counters["pbg_train_swapins_total"]; got != int64(swaps) {
		t.Errorf("swapins counter = %d, want %d", got, swaps)
	}
	ioWait, compute := tr.IOTotals()
	if got := snap.Counters["pbg_train_iowait_ns_total"]; got != ioWait.Nanoseconds() {
		t.Errorf("iowait counter = %d, IOTotals %d", got, ioWait.Nanoseconds())
	}
	if got := snap.Counters["pbg_train_compute_ns_total"]; got != compute.Nanoseconds() || got <= 0 {
		t.Errorf("compute counter = %d, IOTotals %d (want positive and equal)", got, compute.Nanoseconds())
	}
	if snap.Counters["pbg_train_worker_score_ns_total"] <= 0 ||
		snap.Counters["pbg_train_worker_gather_ns_total"] <= 0 {
		t.Error("worker gather/score counters did not accumulate")
	}
	if got := snap.Gauges["pbg_train_lookahead"]; got != int64(tr.Lookahead()) {
		t.Errorf("lookahead gauge = %d, trainer reports %d", got, tr.Lookahead())
	}
	h, ok := snap.Histograms["pbg_train_bucket_loss_per_edge"]
	if !ok || h.Count <= 0 {
		t.Error("bucket loss histogram empty")
	}
	// SetObs plumbing: the DiskStore recorded into the same registry.
	if snap.Counters["pbg_storage_loads_total"] != store.IOStats().Loads {
		t.Errorf("storage loads in shared registry = %d, store reports %d",
			snap.Counters["pbg_storage_loads_total"], store.IOStats().Loads)
	}
	if snap.Counters["pbg_storage_loads_total"] <= 0 {
		t.Error("storage loads did not land in the shared registry")
	}
	// The epochs' SwapIn are deltas of the same count (loads are synchronous
	// or joined before the epoch ends, so nothing falls between two epochs).
	if swapIn != store.IOStats().Loads {
		t.Errorf("EpochStats.SwapIn sum to %d, store loaded %d", swapIn, store.IOStats().Loads)
	}
	// Spans: each epoch recorded a span with bucket children on the train
	// track.
	var epochs, buckets int
	for _, ev := range hub.Trace.Events() {
		switch {
		case strings.HasPrefix(ev.Name, "epoch "):
			epochs++
		case strings.HasPrefix(ev.Name, "bucket "):
			buckets++
			if ev.Parent == 0 {
				t.Errorf("bucket span %q has no epoch parent", ev.Name)
			}
		}
	}
	if epochs != len(stats) || buckets == 0 {
		t.Errorf("trace holds %d epoch spans (want %d) and %d bucket spans (want > 0)",
			epochs, len(stats), buckets)
	}
}

// TestEpochSummaryFormat pins the shared per-epoch line both CLIs print.
func TestEpochSummaryFormat(t *testing.T) {
	s := EpochStats{Epoch: 3, Loss: 50, Edges: 1000, Duration: 2_000_000_000, PartitionIO: 24}
	got := s.Summary()
	want := "epoch 3: loss/edge 0.0500  edges 1000  2.00s  IO 24  iowait 0%"
	if got != want {
		t.Errorf("Summary() = %q, want %q", got, want)
	}
	// A depth without a high-water (the distributed line) prints nothing more.
	s.Lookahead = 2
	if got := s.Summary(); got != want {
		t.Errorf("Summary() with a depth and no high-water = %q, want %q", got, want)
	}
	s.ResidentHighWater = 3 << 20
	if got := s.Summary(); !strings.HasSuffix(got, "iowait 0%  lookahead 2  resident 3.0MB") {
		t.Errorf("Summary() with depth and high-water = %q", got)
	}
	s.Negatives, s.ActiveNegatives = 4000, 1000
	if got := s.Summary(); !strings.Contains(got, "iowait 0%  active 25%  lookahead") {
		t.Errorf("Summary() with negative counts = %q", got)
	}
	s.BarrierWait = 250 * time.Millisecond
	if got := s.Summary(); !strings.Contains(got, "active 25%  barrier 0.25s  lookahead") {
		t.Errorf("Summary() with barrier wait = %q", got)
	}
	s.SwapIn, s.SwapOut = 41, 38
	if got := s.Summary(); !strings.Contains(got, "iowait 0%  swap 41 in / 38 out  active 25%") {
		t.Errorf("Summary() with swap counts = %q", got)
	}
	// Zero-edge epochs must not render NaN.
	if got := (EpochStats{}).Summary(); strings.Contains(got, "NaN") {
		t.Errorf("zero stats render NaN: %q", got)
	}
}

// TestActiveNegativeShare: throughput is a function of the gradient blocks'
// density, so every epoch reports it. Under the ranking loss only margin
// violators carry gradient — some but not all negatives — and their share
// falls as training separates positives from negatives; under logistic every
// unmasked negative does. The counters on /metrics are the same numbers.
func TestActiveNegativeShare(t *testing.T) {
	g := smallSocial(t, 1)
	run := func(loss string) ([]EpochStats, *obs.Hub) {
		hub := obs.NewHub()
		tr := newTrainer(t, g, Config{Epochs: 5, Seed: 3, Workers: 1, Loss: loss, Obs: hub})
		stats, err := tr.Train(nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats, hub
	}
	share := func(s EpochStats) float64 { return float64(s.ActiveNegatives) / float64(s.Negatives) }

	ranking, hub := run("ranking")
	var negs, active int64
	for _, s := range ranking {
		if s.Negatives <= 0 || share(s) <= 0 || share(s) >= 1 {
			t.Errorf("ranking epoch %d: %d of %d negatives active, want a share inside (0, 1)", s.Epoch, s.ActiveNegatives, s.Negatives)
		}
		negs, active = negs+s.Negatives, active+s.ActiveNegatives
	}
	if first, last := share(ranking[0]), share(ranking[4]); last >= first {
		t.Errorf("ranking: active share went %.3f → %.3f over five epochs, want it to fall", first, last)
	}
	snap := hub.Reg.Snapshot()
	if got := snap.Counters["pbg_train_negatives_total"]; got != negs {
		t.Errorf("pbg_train_negatives_total = %d, epochs sum to %d", got, negs)
	}
	if got := snap.Counters["pbg_train_negatives_active_total"]; got != active {
		t.Errorf("pbg_train_negatives_active_total = %d, epochs sum to %d", got, active)
	}

	logistic, _ := run("logistic")
	for _, s := range logistic {
		if s.Negatives <= 0 || s.ActiveNegatives != s.Negatives {
			t.Errorf("logistic epoch %d: %d of %d negatives active, want all", s.Epoch, s.ActiveNegatives, s.Negatives)
		}
	}
}
