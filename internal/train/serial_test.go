package train

import (
	"testing"
	"time"

	"pbg/internal/partition"
)

// runEpochSerial is the reference the pipelined executor is held to: each
// bucket acquires its shards one after another, with no prefetch hint,
// trains, and releases them all before the next bucket starts. Shard
// lifetimes differ from runEpoch's; the math must not.
func (t *Trainer) runEpochSerial(items []partition.Bucket, stats *EpochStats) error {
	r := t.NewResident()
	held := map[int]bool{}
	for _, b := range items {
		held = countSwapIns(b, held, stats)
		var err error
		t0 := time.Now()
		for _, k := range t.bucketShardKeys(b) {
			sh, aerr := t.store.Acquire(k.t, k.p)
			if err = aerr; err != nil {
				break
			}
			r.held[k] = shardRef{shard: sh, first: firstID(t.g.Schema.Entities[k.t], k.p)}
		}
		t.tm.ioWait.Add(time.Since(t0).Nanoseconds())
		t.sampleResident()
		var loss float64
		var edges int
		if err == nil {
			loss, edges, err = r.Train(b)
		}
		// Release errors must surface: a store that writes on Release has
		// lost this bucket's training if the write failed.
		if rerr := r.ReleaseAll(); err == nil {
			err = rerr
		}
		if err != nil {
			return err
		}
		stats.Loss += loss
		stats.Edges += edges
		stats.BucketsActive++
	}
	return nil
}

// trainEpochSerial is TrainEpoch on the serial reference executor, with
// the stats a caller timing the two executors reads.
func (t *Trainer) trainEpochSerial() (EpochStats, error) {
	start := time.Now()
	stats := EpochStats{Epoch: t.epochsRun}
	t.epochHighWater = 0
	ioBase, computeBase := t.tm.ioWait.Value(), t.tm.compute.Value()
	err := t.runEpochSerial(t.epochItems(), &stats)
	stats.IOWait = time.Duration(t.tm.ioWait.Value() - ioBase)
	stats.Compute = time.Duration(t.tm.compute.Value() - computeBase)
	stats.Duration = time.Since(start)
	stats.PeakResident = t.peakBytes
	stats.ResidentHighWater = t.epochHighWater
	t.epochsRun++
	return stats, err
}

// trainSerial runs the configured epochs on the serial reference.
func trainSerial(tb testing.TB, tr *Trainer) []EpochStats {
	tb.Helper()
	var out []EpochStats
	for e := 0; e < tr.cfg.Epochs; e++ {
		st, err := tr.trainEpochSerial()
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, st)
	}
	return out
}
