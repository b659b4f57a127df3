package train

import (
	"fmt"
	"testing"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/storage/storetest"
)

// BenchmarkEpochPipeline measures epoch throughput (edges/s), the IOWait
// share, the resident high-water, and the store's forced evictions on a
// multi-partition DiskStore in four modes: the pipelined executor with an
// unbounded budget ("on"), the serial baseline ("off"), the pipelined
// executor under a budget that admits roughly two buckets of shards
// ("budget") — the configuration the memory-budget acceptance numbers come
// from — and that same budget with the budget-aware bucket ordering
// ("budget_order"), which must cut forcedEvicts versus "budget" at
// identical MemBudgetBytes. The graph is sized so shard I/O is a visible
// fraction of epoch time: many nodes (big shards to serialise) over
// comparatively few edges.
func BenchmarkEpochPipeline(b *testing.B) {
	nodes, degree, dim := 24_000, 3, 64
	if testing.Short() {
		nodes, degree, dim = 4_000, 2, 16
	}
	const parts = 8
	perShard := int64((nodes+parts-1)/parts) * int64(dim+1) * 4
	for _, mode := range []string{"on", "off", "budget", "budget_order"} {
		b.Run(fmt.Sprintf("pipeline=%s", mode), func(b *testing.B) {
			g, err := datagen.Social(datagen.SocialConfig{
				Nodes: nodes, AvgOutDegree: degree, NumPartitions: parts, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			store := storetest.NewDisk(b, "", g.Schema, dim, 7, 1)
			cfg := Config{
				Dim: dim, Seed: 3, Workers: 2, UniformNegs: 10, ChunkSize: 10,
			}
			switch mode {
			case "budget":
				// ~2 buckets of shards (4 shards) plus the in-flight
				// allowance buys the deepest window whose projection fits.
				// Inside-out, as without a budget.
				cfg.MemBudgetBytes = 5 * perShard
				cfg.BucketOrder = partition.OrderInsideOut
			case "budget_order":
				// Same budget, and the bucket sequence planned against the
				// 4-slot buffer it affords.
				cfg.MemBudgetBytes = 5 * perShard
			}
			tr, err := New(g, store, cfg)
			if err != nil {
				b.Fatal(err)
			}
			epoch := tr.TrainEpoch
			if mode == "off" {
				epoch = tr.trainEpochSerial
			}
			var edges int
			var ioWait, total float64
			var highWater int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := epoch()
				if err != nil {
					b.Fatal(err)
				}
				edges += st.Edges
				ioWait += st.IOWait.Seconds()
				total += st.Duration.Seconds()
				if st.ResidentHighWater > highWater {
					highWater = st.ResidentHighWater
				}
			}
			b.StopTimer()
			if total > 0 {
				b.ReportMetric(float64(edges)/total, "edges/s")
				b.ReportMetric(100*ioWait/total, "iowait%")
				b.ReportMetric(float64(highWater)/(1<<20), "residentMB")
				b.ReportMetric(float64(store.IOStats().ForcedEvicts)/float64(b.N), "forcedEvicts")
			}
			if (mode == "budget" || mode == "budget_order") && highWater > cfg.MemBudgetBytes+perShard {
				b.Fatalf("resident high-water %d exceeded budget %d + allowance", highWater, cfg.MemBudgetBytes)
			}
		})
	}
}

// BenchmarkEpochPipelineObs prices the observability layer: the same
// pipeline shape as BenchmarkEpochPipeline run with a full obs.Hub
// (registry + tracer) against the quiet default. The two trainers run
// interleaved epochs with the lead alternating each iteration, so disk
// cache warm-up and CPU frequency drift hit both sides equally. It reports
// the measured overhead and — outside -short, where one warm iteration is
// too noisy to judge — fails if instrumentation costs more than ~2% of
// epoch wall time, the budget the metric-handle caching and per-worker
// local accumulation exist to protect.
func BenchmarkEpochPipelineObs(b *testing.B) {
	nodes, degree, dim := 24_000, 3, 64
	if testing.Short() {
		nodes, degree, dim = 4_000, 2, 16
	}
	const parts = 8
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: nodes, AvgOutDegree: degree, NumPartitions: parts, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	build := func(hub *obs.Hub) *Trainer {
		store := storetest.NewDisk(b, "", g.Schema, dim, 7, 1)
		tr, err := New(g, store, Config{
			Dim: dim, Seed: 3, Workers: 2, UniformNegs: 10, ChunkSize: 10,
			Obs: hub,
		})
		if err != nil {
			b.Fatal(err)
		}
		return tr
	}
	trOn := build(obs.NewHub())
	trOff := build(nil)
	epoch := func(tr *Trainer) time.Duration {
		start := time.Now()
		if _, err := tr.TrainEpoch(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	// One untimed warm-up epoch each: first-touch shard creation is I/O
	// noise, not instrumentation cost.
	epoch(trOn)
	epoch(trOff)
	var onNs, offNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			offNs += epoch(trOff)
			onNs += epoch(trOn)
		} else {
			onNs += epoch(trOn)
			offNs += epoch(trOff)
		}
	}
	b.StopTimer()
	if offNs <= 0 {
		return
	}
	overhead := float64(onNs-offNs) / float64(offNs)
	b.ReportMetric(100*overhead, "obs-overhead-%")
	// Enforce only on the full-size shape with enough accumulated wall time
	// for a 2% signal to clear scheduler jitter.
	if !testing.Short() && offNs > 500*time.Millisecond && overhead > 0.02 {
		b.Fatalf("observability overhead %.1f%% (on %v vs off %v over %d epochs); budget is 2%%",
			100*overhead, onNs, offNs, b.N)
	}
}

// BenchmarkEpochPipelineLargeP is the large-grid shape of the pipeline
// benchmark: many partitions (the regime where the closed-form grouped
// ordering replaces the greedy search) under a budget admitting roughly 8
// partition slots. It reports ordering wall time alongside throughput and
// the store's forced evictions, and fails if building the budget_aware
// order falls back into seconds — the regression the closed forms exist to
// prevent.
func BenchmarkEpochPipelineLargeP(b *testing.B) {
	parts := 64
	if testing.Short() {
		parts = 32
	}
	nodes, dim := parts*150, 16
	perShard := int64((nodes+parts-1)/parts) * int64(dim+1) * 4
	for _, ord := range []string{partition.OrderInsideOut, partition.OrderBudgetAware} {
		b.Run(fmt.Sprintf("P=%d/order=%s", parts, ord), func(b *testing.B) {
			g, err := datagen.Social(datagen.SocialConfig{
				Nodes: nodes, AvgOutDegree: 2, NumPartitions: parts, Seed: 11,
			})
			if err != nil {
				b.Fatal(err)
			}
			store := storetest.NewDisk(b, "", g.Schema, dim, 7, 1)
			cfg := Config{
				Dim: dim, Seed: 3, Workers: 2, UniformNegs: 5, ChunkSize: 10,
				BucketOrder: ord, MemBudgetBytes: 9 * perShard,
			}
			orderStart := time.Now()
			tr, err := New(g, store, cfg)
			orderMS := float64(time.Since(orderStart).Microseconds()) / 1000
			if err != nil {
				b.Fatal(err)
			}
			if ord == partition.OrderBudgetAware && orderMS > 1000 {
				b.Fatalf("budget_aware ordering at P=%d took %.0fms (trainer construction); want milliseconds", parts, orderMS)
			}
			projected := partition.SwapCostUnderBuffer(tr.Buckets(), tr.BufferSlots())
			var edges int
			var total float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := tr.TrainEpoch()
				if err != nil {
					b.Fatal(err)
				}
				edges += st.Edges
				total += st.Duration.Seconds()
			}
			b.StopTimer()
			if total > 0 {
				b.ReportMetric(float64(edges)/total, "edges/s")
				b.ReportMetric(float64(store.IOStats().ForcedEvicts)/float64(b.N), "forcedEvicts")
			}
			b.ReportMetric(orderMS, "orderMs")
			b.ReportMetric(float64(projected), "projLoads")
		})
	}
}
