package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pbg/internal/obs"
)

// mval is one reported metric value.
type mval struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. The last line of a run's
// standard output is exactly this object's four contract keys.
type result struct {
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]mval `json:"metrics"`
}

// run carries one workload run: its inputs' seed, time budget, the obs hub
// (with a tracer only when traced), a scratch directory inside the checkout,
// and everything the run reports.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	procs    int

	// hub is nil on untraced runs, so every component builds its own quiet
	// hub exactly as a user who passes no Obs gets; a traced run shares one
	// hub with a tracer, which also switches on the modules' own spans.
	hub  *obs.Hub
	root *obs.Span
	tmp  string

	started time.Time
	atStart stamp
	// ref is the reference work; speeds are the readings of the machine's
	// speed the run's gauges took (ref.go).
	ref    *reference
	speeds []float64
	spec   *benchSpec
	// trainWindows are the wall-time intervals of the training epochs, for
	// attributing the store's background spans to training.
	trainWindows []window

	all map[string]mval // every metric measured, by name
	// headlineOps counts the units of headline work (trained edges, served
	// queries), the base of runtime.allocs_per_op.
	headlineOps int
	attempted   int
	failed      int
	violations  []string
	notes       []string
}

func newRun(spec *benchSpec, workload string, seed uint64, secs float64, traced bool, scratch string) (*run, error) {
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(scratch, workload+"-")
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload, seed: seed, seconds: secs, traced: traced, procs: procs,
		tmp: tmp, started: time.Now(), atStart: stampNow(), ref: newReference(procs), spec: spec, all: map[string]mval{},
	}
	if traced {
		r.hub = &obs.Hub{Reg: obs.NewRegistry(), Trace: obs.NewTracer(traceCapacity)}
		r.root = r.hub.Trace.Start("benchmark", fmt.Sprintf("run %s seed=%d", workload, seed))
	}
	return r, nil
}

// cleanup removes the scratch directory. Callers close every store, server
// and client first: a store still writing back races the removal.
func (r *run) cleanup() error { return os.RemoveAll(r.tmp) }

// dir returns a fresh empty directory under the run's scratch space.
func (r *run) dir(name string) (string, error) {
	return os.MkdirTemp(r.tmp, name+"-")
}

// span opens a child of the run's root span; nil (inert) when untraced.
func (r *run) span(name string) *obs.Span { return r.root.Child(name) }

func (r *run) set(name string, v float64, unit string) {
	r.all[name] = mval{Value: v, Unit: unit}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records a correctness violation when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// closed records a violation when closing what a run opened failed: a
// store or server that did not shut down cleanly may have lost writes.
func (r *run) closed(what string, err error) {
	r.check(err == nil, "closing %s: %v", what, err)
}

// ops counts operations against the attempted/failed totals.
func (r *run) ops(attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
}

// timeSetup sets up repeatedly - at least setupReps times, and on until
// setupTime has gone into it or setupMaxReps are done, so that a set-up of a
// tenth of a second is timed as many times as it takes to tell it from the
// machine's hiccups - and records the median duration as setup_s, in granted
// time (clock.go) at the nominal machine speed (ref.go). Every repetition but
// the last is torn down at once; the last one's teardown is returned for the
// caller to defer.
func (r *run) timeSetup(build func() (teardown func() error, err error)) (func() error, error) {
	sp := r.span("setup")
	defer sp.End()
	var times, walls []float64
	var spent time.Duration
	g := r.newGauge(setupGap)
	for {
		var teardown func() error
		l, speed, err := g.around(func() (err error) {
			teardown, err = build()
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, atNominal(l, speed))
		walls = append(walls, l.wall.Seconds())
		spent += l.wall
		if n := len(times); n >= setupMaxReps || n >= setupReps && spent >= setupTime {
			r.set("setup_s", median(times), "s")
			r.set("runtime.setup_wall_s", median(walls), "s")
			r.note("setup_s: median of %d set-ups, each in granted time at the nominal machine speed; runtime.setup_wall_s is the median of their wall times", n)
			return teardown, nil
		}
		if err := teardown(); err != nil {
			return nil, fmt.Errorf("setup teardown: %w", err)
		}
	}
}

// finish assembles the contract result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one. A metric the spec
// lists but the run did not measure is a violation.
func (r *run) finish() result {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mval{}}
	want := r.spec.EndToEnd
	if r.traced {
		want = r.spec.PerLayer
	}
	for _, m := range want {
		v, ok := r.all[m.Name]
		if !ok {
			r.check(false, "metric %s not measured by %s", m.Name, r.workload)
			continue
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.check(false, "metric %s is %v", m.Name, v.Value)
			v.Value = 0
		}
		if v.Unit != m.Unit {
			r.check(false, "metric %s has unit %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
		res.Metrics[m.Name] = v
	}
	if res.Attempted < 1 {
		r.check(false, "no operation attempted")
		res.Attempted = 1
	}
	r.check(res.Failed == 0, "%d of %d operations failed", res.Failed, res.Attempted)
	res.Correct = len(r.violations) == 0
	return res
}

// report prints every measured metric by name with its unit, the notes
// (sample counts, definitions) and the violations.
func (r *run) report(w io.Writer) {
	names := make([]string, 0, len(r.all))
	for n := range r.all {
		names = append(names, n)
	}
	sort.Strings(names)
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s seed=%d %s GOMAXPROCS=%d wall=%.1fs attempted=%d failed=%d\n",
		r.workload, r.seed, mode, r.procs, time.Since(r.started).Seconds(), r.attempted, r.failed)
	for _, n := range names {
		v := r.all[n]
		fmt.Fprintf(w, "%-44s %14.6g %s\n", n, v.Value, v.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

// writeTrace exports the traced run's spans in Chrome trace_event format.
func (r *run) writeTrace(outDir string) error {
	if !r.traced {
		return nil
	}
	r.root.End()
	r.set("obs.trace_spans", float64(r.hub.Trace.Len()), "count")
	r.set("obs.trace_dropped", float64(r.hub.Trace.Dropped()), "count")
	r.noteSelfTimes()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, r.workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := r.hub.Trace.WriteChromeTrace(f); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func printResult(w io.Writer, res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
