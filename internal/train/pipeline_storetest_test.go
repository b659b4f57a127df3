package train

// The pipelined executor's behavioural tests run on the storetest harness:
// a real storage.Cache over an in-memory backend (channel gates, scripted
// errors), wrapped by the instrumented store (event log, refcount ledger),
// so prefetch ordering, shard retention, abort cleanup, and I/O–compute
// overlap are pinned against the cache's own joins without real disk
// timing or wall-clock sleeps.

import (
	"errors"
	"testing"

	"pbg/internal/storage"
	"pbg/internal/storage/storetest"
)

// harnessTrainer builds a trainer over the harness cache. A depth above 1
// is set directly: with no budget to widen against, the controller would
// keep it at 1.
func harnessTrainer(t *testing.T, parts int, cfg Config, depth int) (*Trainer, *storetest.Store, *storetest.Backend, *storage.Cache) {
	t.Helper()
	g := smallSocial(t, parts)
	if cfg.Dim == 0 {
		cfg.Dim = 16
	}
	st, be, c := storetest.NewCache(t, g.Schema, cfg.Dim, 7)
	tr, err := New(g, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr.lookahead = depth
	return tr, st, be, c
}

// itemKeys lists each epoch item's shard keys as storetest keys.
func itemKeys(tr *Trainer) [][]storetest.Key {
	var out [][]storetest.Key
	for _, b := range tr.epochItems() {
		var ks []storetest.Key
		for _, k := range tr.bucketShardKeys(b) {
			ks = append(ks, storetest.Key{Type: k.t, Part: k.p})
		}
		out = append(out, ks)
	}
	return out
}

// TestPipelinePrefetchesBeforeAcquire pins the executor's hint discipline:
// every shard it acquires was hinted via Prefetch earlier in the event log
// (the store gets the chance to overlap every load), and with lookahead L
// the keys of the first L successor items are hinted while item 0 still
// trains — before the first Release of the epoch.
func TestPipelinePrefetchesBeforeAcquire(t *testing.T) {
	tr, st, _, _ := harnessTrainer(t, 4, Config{Epochs: 1, Seed: 3}, 2)
	if _, err := tr.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	events := st.Events()
	firstRelease := -1
	for i, e := range events {
		if e.Kind == storetest.KindRelease {
			firstRelease = i
			break
		}
	}
	if firstRelease < 0 {
		t.Fatal("epoch released nothing")
	}
	seenAcquire := map[storetest.Key]bool{}
	for _, e := range events {
		if e.Kind == storetest.KindAcquire && !seenAcquire[e.Key] {
			seenAcquire[e.Key] = true
			if p := st.FirstIndex(storetest.KindPrefetch, e.Key); p < 0 || p > st.FirstIndex(storetest.KindAcquire, e.Key) {
				t.Fatalf("shard %+v acquired without a preceding prefetch hint", e.Key)
			}
		}
	}
	// Lookahead 2: items 1 and 2 are hinted during item 0, i.e. before the
	// first release of the epoch.
	items := itemKeys(tr)
	for i := 1; i <= 2 && i < len(items); i++ {
		for _, k := range items[i] {
			if p := st.FirstIndex(storetest.KindPrefetch, k); p < 0 || p > firstRelease {
				t.Fatalf("item %d shard %+v not hinted during item 0 (prefetch idx %d, first release %d)",
					i, k, p, firstRelease)
			}
		}
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineHoldsSharedShards pins acquire-before-release retention:
// shards shared by consecutive buckets keep their reference across the
// transition, so the acquire count equals exactly the number of (item,
// newly-needed shard) pairs — and every acquire is balanced by an evict.
func TestPipelineHoldsSharedShards(t *testing.T) {
	tr, st, _, _ := harnessTrainer(t, 4, Config{Epochs: 1, Seed: 3}, 1)
	if _, err := tr.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	items := itemKeys(tr)
	expected := 0
	held := map[storetest.Key]bool{}
	for _, ks := range items {
		need := map[storetest.Key]bool{}
		for _, k := range ks {
			need[k] = true
			if !held[k] {
				expected++
			}
		}
		held = need
	}
	var acquired, evicted int
	for _, e := range st.Events() {
		switch e.Kind {
		case storetest.KindAcquired:
			acquired++
		case storetest.KindEvict:
			evicted++
		}
	}
	if acquired != expected {
		t.Fatalf("acquired %d shards, want %d (shared shards must stay held across transitions)", acquired, expected)
	}
	if evicted != acquired {
		t.Fatalf("evicted %d != acquired %d (unbalanced shard lifetimes)", evicted, acquired)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// midEpochKey returns a shard key first needed by an item index ≥ 2, so a
// scripted failure (or gate) on it hits the executor mid-epoch, after
// lookahead hints are in flight.
func midEpochKey(t *testing.T, tr *Trainer) storetest.Key {
	t.Helper()
	first := map[storetest.Key]int{}
	for i, ks := range itemKeys(tr) {
		for _, k := range ks {
			if _, ok := first[k]; !ok {
				first[k] = i
			}
		}
	}
	for k, i := range first {
		if i >= 2 {
			return k
		}
	}
	t.Fatal("no shard first needed mid-epoch; enlarge the partition grid")
	return storetest.Key{}
}

// TestPipelineAbortReleasesEverything pins the abort path: a shard load
// failing mid-epoch must surface from TrainEpoch, and every held shard and
// in-flight lookahead hint must be released/discarded — no reference leaks,
// no loads left in the cache.
func TestPipelineAbortReleasesEverything(t *testing.T) {
	tr, st, be, c := harnessTrainer(t, 4, Config{Epochs: 1, Seed: 3}, 2)
	boom := errors.New("scripted load failure")
	k := midEpochKey(t, tr)
	be.FailLoad(k.Type, k.Part, boom) // held until cleared: the hint and the Acquire both fail
	if _, err := tr.TrainEpoch(); !errors.Is(err, boom) {
		t.Fatalf("scripted failure not surfaced: %v", err)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if n := st.Outstanding(); n != 0 {
		t.Fatalf("%d references leaked through the abort path", n)
	}
	for _, e := range c.State().Entries {
		if e.Loading {
			t.Fatalf("shard (%d,%d) still loading after abort", e.Type, e.Part)
		}
	}
	// The trainer remains usable: the next epoch runs clean.
	be.FailLoad(k.Type, k.Part, nil)
	if _, err := tr.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineGatedLoadOverlapsTraining drives the executor against a
// deterministically slow shard: the load of a mid-epoch shard is held by a
// gate, the gate's Started handshake proves the prefetch was issued while
// earlier buckets still train, and opening the gate lets the epoch finish.
// No wall-clock timing anywhere.
func TestPipelineGatedLoadOverlapsTraining(t *testing.T) {
	tr, st, be, _ := harnessTrainer(t, 4, Config{Epochs: 1, Seed: 3}, 2)
	k := midEpochKey(t, tr)
	gate := be.GateLoad(k.Type, k.Part)
	done := make(chan error, 1)
	go func() {
		_, err := tr.TrainEpoch()
		done <- err
	}()
	<-gate.Started() // the hinted load is in flight and stalled
	select {
	case err := <-done:
		t.Fatalf("epoch finished while a needed shard load was gated (err=%v)", err)
	default:
	}
	gate.Open()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if p, a := st.FirstIndex(storetest.KindPrefetch, k), st.FirstIndex(storetest.KindAcquire, k); p < 0 || p > a {
		t.Fatalf("gated shard was not hinted ahead of its acquire (prefetch %d, acquire %d)", p, a)
	}
	if err := st.LeakCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineMatchesSerialLossOnHarness ports the loss-parity pin to the
// harness: the pipelined executor over the instrumented store produces
// bit-identical per-epoch losses to the serial baseline (shard lifetimes
// change, the math must not), with zero real I/O.
func TestPipelineMatchesSerialLossOnHarness(t *testing.T) {
	run := func(serial bool) ([]EpochStats, *storetest.Store) {
		tr, st, _, _ := harnessTrainer(t, 4, Config{Epochs: 2, Seed: 3}, 1)
		if serial {
			return trainSerial(t, tr), st
		}
		stats, err := tr.Train(nil)
		if err != nil {
			t.Fatal(err)
		}
		return stats, st
	}
	pipe, pst := run(false)
	serial, sst := run(true)
	for e := range pipe {
		if pipe[e].Loss != serial[e].Loss || pipe[e].Edges != serial[e].Edges {
			t.Fatalf("epoch %d diverged: pipeline (%v, %d) vs serial (%v, %d)",
				e, pipe[e].Loss, pipe[e].Edges, serial[e].Loss, serial[e].Edges)
		}
	}
	if err := pst.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	if err := sst.LeakCheck(); err != nil {
		t.Fatal(err)
	}
	// The serial baseline must not issue hints; the pipeline must.
	if n := len(sst.Events()); n > 0 {
		for _, e := range sst.Events() {
			if e.Kind == storetest.KindPrefetch {
				t.Fatal("serial executor issued prefetch hints")
			}
		}
	}
	hinted := false
	for _, e := range pst.Events() {
		if e.Kind == storetest.KindPrefetch {
			hinted = true
			break
		}
	}
	if !hinted {
		t.Fatal("pipelined executor issued no prefetch hints")
	}
}
