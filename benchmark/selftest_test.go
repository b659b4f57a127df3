//go:build !race

// The workloads train HOGWILD, whose row races are intentional; like
// internal/bench these tests are not built under the race detector.

package main

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"pbg"
	"pbg/internal/graph"
	"pbg/internal/rng"
	"pbg/internal/storage"
)

// tinyShapes shrinks every workload so a run takes a fraction of a second,
// and drops the quality floors, which are calibrated for the real shapes.
func tinyShapes(t *testing.T) {
	t.Helper()
	kg, ooc, dst, srv, pt, sg, tg := kgMemShape, socialOOCShape, socialDistShape, serveShape, probeTime, setupGap, trainGap
	t.Cleanup(func() {
		kgMemShape, socialOOCShape, socialDistShape, serveShape, probeTime, setupGap, trainGap = kg, ooc, dst, srv, pt, sg, tg
	})

	probeTime, setupGap, trainGap = time.Millisecond, time.Millisecond, time.Millisecond
	kgMemShape.entities, kgMemShape.edges, kgMemShape.pool = 400, 4000, 16
	kgMemShape.dim, kgMemShape.evalEdges, kgMemShape.evalCands, kgMemShape.mrrFloor = 8, 100, 50, 0
	socialOOCShape.nodes, socialOOCShape.dim = 1600, 8
	socialOOCShape.evalEdges, socialOOCShape.evalCands, socialOOCShape.mrrFloor = 100, 50, 0
	socialDistShape.nodes, socialDistShape.dim = 800, 8
	socialDistShape.evalEdges, socialDistShape.evalCands, socialDistShape.mrrFloor = 100, 50, 0
	serveShape.nodes, serveShape.dim, serveShape.epochs, serveShape.recallFloor, serveShape.refQueries = 1000, 8, 1, 0, 32
}

func TestSpecMatchesBenchmark(t *testing.T) {
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 / 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark implements %v", names, workloadNames())
	}
	setup := false
	for _, m := range spec.EndToEnd {
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better")
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}

// Every metric BENCHMARK.json lists is emitted, with the listed unit, by
// every workload: the end-to-end ones by an untraced run, the per-layer ones
// by a traced run.
func TestWorkloadsEmitEveryListedMetric(t *testing.T) {
	tinyShapes(t)
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, r, err := runWorkload(spec, w.Name, 1, 0.4, traced, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s: got %+v (present %v), want unit %q", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the result, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			if res.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d", w.Name, traced, res.Attempted)
			}
			for _, v := range r.violations {
				if strings.Contains(v, "not measured") || strings.Contains(v, "has unit") {
					t.Errorf("%s traced=%v: %s", w.Name, traced, v)
				} else {
					t.Logf("%s traced=%v (tiny shapes): %s", w.Name, traced, v)
				}
			}
		}
	}
}

// The held-out edges are ranked once for quality after qualityAt epochs and
// sliceChunks more chunks after every later epoch, so evaluation samples the
// whole run.
func TestEvaluationIsInterleaved(t *testing.T) {
	tinyShapes(t)
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	_, r, err := runWorkload(spec, "kg_mem", 1, 0.2, true, t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sh := kgMemShape
	epochs := int(r.all["train.epochs_timed"].Value) + 1 // the warm-up
	if epochs <= sh.qualityAt {
		t.Fatalf("%d epochs ran, want more than qualityAt = %d", epochs, sh.qualityAt)
	}
	want := sh.evalEdges + (epochs-sh.qualityAt)*sliceChunks*evalChunkEdges
	if got := int(r.all["eval.candidates_scored"].Value) / sh.evalCands; got != want {
		t.Errorf("%d edges ranked over %d epochs, want %d: all %d once, then %d chunks of %d after each later epoch",
			got, epochs, want, sh.evalEdges, sliceChunks, evalChunkEdges)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	tinyShapes(t)
	gen := func(seed uint64) (*pbg.Graph, []int32) {
		g, err := pbg.KnowledgeGraph(pbg.KnowledgeGraphConfig{
			Entities: kgMemShape.entities, Relations: kgMemShape.relations, Edges: kgMemShape.edges,
			CandidatePool: kgMemShape.pool, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		trainG, _ := splitHeldOut(g, kgMemShape.evalEdges, seed)
		return trainG, queryStream(seed, serveShape.nodes, serveShape.zipf, 4096)
	}
	g1, q1 := gen(5)
	g2, q2 := gen(5)
	g3, q3 := gen(6)
	if !reflect.DeepEqual(g1.Edges, g2.Edges) || !reflect.DeepEqual(q1, q2) {
		t.Error("the same seed generated different inputs")
	}
	if reflect.DeepEqual(g1.Edges, g3.Edges) || reflect.DeepEqual(q1, q3) {
		t.Error("different seeds generated the same inputs")
	}
	social := func(seed uint64) *graph.EdgeList {
		g, err := pbg.SocialGraph(pbg.SocialGraphConfig{Nodes: 500, AvgOutDegree: 4, NumPartitions: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return g.Edges
	}
	if !reflect.DeepEqual(social(9), social(9)) {
		t.Error("the same seed generated different social graphs")
	}
}

func TestGateTripsOnWrongTopK(t *testing.T) {
	const n, dim, k = 200, 8, 10
	rg := rng.New(3)
	emb := make([]float32, n*dim)
	for i := range emb {
		emb[i] = rg.NormFloat32()
	}
	const src = 17
	score := func(id int) float64 {
		var s float64
		for j := 0; j < dim; j++ {
			s += float64(emb[src*dim+j]) * float64(emb[id*dim+j])
		}
		return s
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	sort.Slice(ids, func(a, b int) bool { return score(ids[a]) > score(ids[b]) })
	right := make([]int32, k)
	for i := range right {
		right[i] = int32(ids[i])
	}
	if !matchesReference(emb, dim, src, k, right) {
		t.Fatal("the brute-force answer does not match the reference")
	}
	wrong := append([]int32(nil), right...)
	wrong[3] = int32(ids[n-1]) // the worst-scoring id cannot be a rounding tie
	if matchesReference(emb, dim, src, k, wrong) {
		t.Error("an injected wrong top-K id passed the gate")
	}
	if matchesReference(emb, dim, src, k, right[:k-1]) {
		t.Error("a short answer passed the gate")
	}
}

func TestGateTripsOnNaNLoss(t *testing.T) {
	epoch := func(loss float64) epochRec {
		return epochRec{edges: 100, buckets: 4, loss: loss, wall: time.Second, nodes: 1, compute: time.Second}
	}
	good := &run{all: map[string]mval{}}
	good.reportTraining(epoch(50), []epochRec{epoch(40), epoch(30)}, 100, 4)
	if len(good.violations) != 0 {
		t.Fatalf("a clean run violated: %v", good.violations)
	}
	for name, timed := range map[string][]epochRec{
		"NaN loss":     {epoch(40), epoch(math.NaN())},
		"rising loss":  {epoch(60), epoch(70)},
		"missed edges": {{edges: 99, buckets: 4, loss: 10, wall: time.Second, nodes: 1}},
	} {
		r := &run{all: map[string]mval{}}
		r.reportTraining(epoch(50), timed, 100, 4)
		if len(r.violations) == 0 {
			t.Errorf("%s passed the gate", name)
		}
	}
}

// tracedStore must forward the hints and the optional capabilities the way
// storetest.NewPassthrough does (its TestPassthroughForwardsHints).
func TestTracedStoreForwards(t *testing.T) {
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 12, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	ds, err := storage.NewDiskStore(t.TempDir(), schema, 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	st := newTracedStore(ds, nil)
	t.Cleanup(func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	})
	st.SetCodec(storage.CodecFP16)
	if ds.Codec() != storage.CodecFP16 {
		t.Error("SetCodec did not reach the inner store")
	}
	st.SetMaxResidentBytes(1 << 20)
	if ds.MaxResidentBytes() != 1<<20 {
		t.Error("SetMaxResidentBytes did not reach the inner store")
	}
	var store storage.Store = st
	for _, capability := range []bool{
		implements[interface{ SetCodec(storage.Codec) }](store),
		implements[interface{ SetMaxResidentBytes(int64) }](store),
		implements[interface{ Drain() error }](store),
	} {
		if !capability {
			t.Error("tracedStore hides a capability train.New discovers by type assertion")
		}
	}

	st.Prefetch(0, 0) // must reach the DiskStore's background machinery
	sh, err := st.Acquire(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sh.Part != 0 {
		t.Fatalf("wrong shard: %+v", sh)
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := ds.IOStats().Loads; got != 1 {
		t.Errorf("inner store loads = %d, want 1 (hint + join, no double load)", got)
	}
	if st.acquires.Load() != 1 || st.releases.Load() != 1 {
		t.Errorf("counted %d acquires and %d releases, want 1 and 1", st.acquires.Load(), st.releases.Load())
	}
}

func implements[T any](v any) bool {
	_, ok := v.(T)
	return ok
}

// Granted time takes the stolen share off a lap's wall time, counting a
// processor's stolen time only to the extent the processor was busy.
func TestGrantedTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	from := stamp{t: t0, cpus: []cpuTimes{{}, {}}}
	for _, c := range []struct {
		name string
		cpu  float64
		now  []cpuTimes
		want time.Duration
	}{
		{"nothing stolen", 4, []cpuTimes{{busy: 2}, {busy: 2}}, 2 * time.Second},
		{"both busy, a quarter stolen", 3, []cpuTimes{{busy: 1.5, steal: 0.5}, {busy: 1.5, steal: 0.5}}, 1500 * time.Millisecond},
		{"one busy, steal on the idle one is free", 1.5, []cpuTimes{{busy: 1.5, steal: 0.5}, {idle: 1.5, steal: 0.5}}, 1500 * time.Millisecond},
		// One thread, 1.2 s of work, moved between the processors: each looks
		// half idle, so the weighted steal (0.6 s of 0.8) is too small.
		{"one thread that changes processor", 1.2, []cpuTimes{{busy: 0.6, steal: 0.4, idle: 1}, {busy: 0.6, steal: 0.4, idle: 1}}, 1200 * time.Millisecond},
		{"no more is taken off than was stolen", 0.1, []cpuTimes{{busy: 1.5, steal: 0.5}, {idle: 2}}, 1500 * time.Millisecond},
		{"no processor times", 1, nil, 2 * time.Second},
	} {
		l := from.until(stamp{t: t0.Add(2 * time.Second), cpu: c.cpu, cpus: c.now})
		if got := l.granted(); got != c.want {
			t.Errorf("%s: granted %v, want %v (%+v)", c.name, got, c.want, l)
		}
	}
	if got := atNominal(lap{wall: 2 * time.Second}, 0.5); got != 1 {
		t.Errorf("2 s on a machine at half the nominal speed are %v s at the nominal speed, want 1", got)
	}
}

// A gauge reads the machine's speed before and after each piece of work and
// shares the reading between two pieces unless told other work ran.
func TestGaugeReadings(t *testing.T) {
	r := &run{ref: newReference(2)}
	g := r.newGauge(time.Millisecond)
	work := func() error { return nil }
	for i := 0; i < 2; i++ {
		if _, speed, err := g.around(work); err != nil || !(speed > 0) {
			t.Fatalf("speed %v, err %v", speed, err)
		}
	}
	if len(r.speeds) != 3 {
		t.Errorf("%d readings around two pieces of work, want 3", len(r.speeds))
	}
	g.stale()
	if _, _, err := g.around(work); err != nil || len(r.speeds) != 5 {
		t.Errorf("%d readings after a stale gauge timed a third piece, want 5 (err %v)", len(r.speeds), err)
	}
}
