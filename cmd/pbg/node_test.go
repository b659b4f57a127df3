package main

import (
	"strings"
	"testing"

	"pbg/internal/dist"
	"pbg/internal/partition"
)

// TestNodeResumesRestoredEpoch: a trainer joins a deployment whose lock
// server was restored from a checkpoint where that server is — the
// interrupted epoch, or the one after a complete cut — and trains up to
// num_epochs counted from the run's start, rank 0 starting each epoch by
// its number.
func TestNodeResumesRestoredEpoch(t *testing.T) {
	dir := importSocial(t, `{"entities":{"node":{"num_partitions":4}},"dimension":8,"num_epochs":3,"eval_fraction":0.05,"seed":2}`)
	rd, _, err := openRun(dir)
	if err != nil {
		t.Fatal(err)
	}
	order, err := partition.Order(partition.OrderInsideOut, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		restore dist.LockOption
		epochs  int // the trainer should run
	}{
		"interrupted epoch 3":     {dist.WithRestoredEpoch(3, order[:5]), 1},
		"after a complete cut":    {dist.WithRestoredEpoch(2, order), 1},
		"interrupted first epoch": {dist.WithRestoredEpoch(1, nil), 3},
	} {
		t.Run(name, func(t *testing.T) {
			ls := dist.NewLockServer(order, c.restore)
			ll, err := dist.ListenAndServe("127.0.0.1:0", map[string]any{"LockServer": ls})
			if err != nil {
				t.Fatal(err)
			}
			defer ll.Close()
			pl, err := dist.ListenAndServe("127.0.0.1:0", map[string]any{"PartitionServer": dist.NewPartitionServer(rd.schema, 8, 3)})
			if err != nil {
				t.Fatal(err)
			}
			defer pl.Close()
			out := pbgRun(t, "node", "-dir", dir, "-role", "trainer", "-rank", "0", "-workers", "1",
				"-lock", ll.Addr().String(), "-partition-servers", pl.Addr().String())
			var es dist.EpochStateReply
			if err := ls.EpochState(dist.EpochStateArgs{}, &es); err != nil {
				t.Fatal(err)
			}
			if es.Epoch != 3 || len(es.Done) != 16 {
				t.Errorf("lock server at epoch %d with %d buckets done, want epoch 3 complete", es.Epoch, len(es.Done))
			}
			if got := strings.Count(out, "rank 0 epoch"); got != c.epochs {
				t.Errorf("the trainer ran %d epochs, want %d:\n%s", got, c.epochs, out)
			}
		})
	}
}
