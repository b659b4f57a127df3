package storage

import "testing"

// BenchmarkCachePlanReplay replays social_ooc's 256-bucket plan (48 000
// nodes in 16 partitions at d=128, a budget of 6 shards) over a temp
// directory with no training in between: what one epoch of swapping costs
// under the cache's write rule (HEAD) and under the rule it replaced
// (eager-reference: store on every last Release). Reported per epoch: shards
// written, shards loaded, and the MB/s of shard bytes moved either way.
func BenchmarkCachePlanReplay(b *testing.B) {
	const nodes, dim = 48_000, 128
	schema := partitionedSchema(nodes, oocParts)
	order := oocPlan(b)
	shardMB := float64(ProjectedShardBytes(schema, dim, 0, 0)) / 1e6
	touch := func(sh *Shard) { sh.Row(0)[0]++ }
	report := func(b *testing.B, loads, writes int64) {
		b.ReportMetric(float64(writes)/float64(b.N), "writes/epoch")
		b.ReportMetric(float64(loads)/float64(b.N), "loads/epoch")
		b.ReportMetric(float64(loads+writes)*shardMB/b.Elapsed().Seconds(), "MB/s")
	}
	b.Run("eager-reference", func(b *testing.B) {
		st := newEagerStore(b.TempDir(), schema, dim, oocSlots)
		if err := replayEpoch(st, order, oocLookahead, touch); err != nil { // every file exists from here on
			b.Fatal(err)
		}
		st.loads, st.writes = 0, 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := replayEpoch(st, order, oocLookahead, touch); err != nil {
				b.Fatal(err)
			}
		}
		report(b, st.loads, st.writes)
	})
	b.Run("HEAD", func(b *testing.B) {
		st := newTestDisk(b, "", schema, dim, 1, 1)
		st.SetMaxResidentBytes(oocSlots * st.shardBytes(0, 0))
		if err := replayEpoch(st, order, oocLookahead, touch); err != nil {
			b.Fatal(err)
		}
		base := st.IOStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := replayEpoch(st, order, oocLookahead, touch); err != nil {
				b.Fatal(err)
			}
		}
		if err := st.Drain(); err != nil { // what is still dirty is part of the bill
			b.Fatal(err)
		}
		io := st.IOStats()
		report(b, io.Loads-base.Loads, io.Writes-base.Writes)
	})
}
