package storage

import (
	"strings"
	"testing"
	"time"

	"pbg/internal/obs"
)

// findSpan returns the first recorded span whose name has the given prefix.
func findSpan(t *testing.T, evs []obs.SpanEvent, prefix string) obs.SpanEvent {
	t.Helper()
	for _, ev := range evs {
		if strings.HasPrefix(ev.Name, prefix) {
			return ev
		}
	}
	t.Fatalf("no span with prefix %q in %d events", prefix, len(evs))
	return obs.SpanEvent{}
}

// TestDiskStoreSpanNesting drives one shard through the full prefetch →
// acquire → release → write-back lifecycle and asserts the recorded spans
// tell that story: the load nests inside its prefetch window (and is its
// child), and the write-back starts only after Release.
func TestDiskStoreSpanNesting(t *testing.T) {
	hub := obs.NewHub()
	st := newTestDisk(t, "", testSchema(t), 8, 1, 1)
	st.SetObs(hub)

	st.Prefetch(0, 1)
	sh, err := st.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	sh.Row(0)[0] = 1.0
	released := time.Now()
	if err := st.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}

	evs := hub.Trace.Events()
	prefetch := findSpan(t, evs, "prefetch t0 p1")
	load := findSpan(t, evs, "load t0 p1")
	write := findSpan(t, evs, "writeback t0 p1")
	snap := findSpan(t, evs, "snapshot t0 p1")

	if load.Parent != prefetch.ID {
		t.Errorf("load parent = %d, want prefetch span %d", load.Parent, prefetch.ID)
	}
	if load.Start.Before(prefetch.Start) {
		t.Error("load starts before its prefetch window opens")
	}
	if load.Start.Add(load.Dur).After(prefetch.Start.Add(prefetch.Dur)) {
		t.Error("load ends after its prefetch window closes")
	}
	for _, sp := range []struct {
		name string
		ev   obs.SpanEvent
	}{{"snapshot", snap}, {"writeback", write}} {
		if sp.ev.Start.Before(released) {
			t.Errorf("%s span starts %v before Release", sp.name, released.Sub(sp.ev.Start))
		}
	}

	// IOStats is a view over the same registry the endpoint scrapes.
	snapReg := hub.Reg.Snapshot()
	stats := st.IOStats()
	if stats.Loads != snapReg.Counters["pbg_storage_loads_total"] || stats.Loads != 1 {
		t.Errorf("loads: IOStats %d, registry %d, want 1",
			stats.Loads, snapReg.Counters["pbg_storage_loads_total"])
	}
	if stats.Writes != snapReg.Counters["pbg_storage_writebacks_total"] || stats.Writes != 1 {
		t.Errorf("writes: IOStats %d, registry %d, want 1",
			stats.Writes, snapReg.Counters["pbg_storage_writebacks_total"])
	}
	// Unbudgeted stores evict on write-back, so the resident gauge must have
	// returned to zero.
	if got := snapReg.Gauges["pbg_storage_resident_bytes"]; got != 0 {
		t.Errorf("resident gauge = %d after drain, want 0", got)
	}
}
