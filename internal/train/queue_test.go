package train

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/obs"
)

// TestBucketQueueClaimsEveryEdgeOnce builds the chunk queue of every bucket
// of a multi-relation P=4 graph and lets W ∈ {2, 4} goroutines claim from it
// concurrently, as a bucket's workers do: every edge of the bucket must be
// claimed exactly once, in a chunk of its own relation no longer than
// ChunkSize, and each relation's chunks must follow the schema order.
func TestBucketQueueClaimsEveryEdgeOnce(t *testing.T) {
	g, err := datagen.Knowledge(datagen.KGConfig{Entities: 400, Relations: 5, Edges: 4000, NumPartitions: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		tr := newTrainer(t, g, Config{Workers: workers, ChunkSize: 7, Seed: 5})
		q := &tr.queue
		for _, b := range tr.Buckets() {
			rg := tr.ranges[b.Index(tr.nDst)]
			q.build(tr, rg.Lo, rg.Hi)
			claims := make([]atomic.Int32, rg.Len())
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for c, ok := q.claim(); ok; c, ok = q.claim() {
						if n := c.hi - c.lo; n < 1 || n > tr.cfg.ChunkSize {
							t.Errorf("bucket %v: a chunk of %d edges", b, n)
						}
						for _, ei := range q.edges[c.lo:c.hi] {
							if got := int(tr.edges.Rels[ei]); got != c.rel {
								t.Errorf("bucket %v: edge %d of relation %d in a chunk of relation %d", b, ei, got, c.rel)
							}
							claims[ei-rg.Lo].Add(1)
						}
					}
				}()
			}
			wg.Wait()
			for i := range claims {
				if n := claims[i].Load(); n != 1 {
					t.Fatalf("W=%d bucket %v: edge %d claimed %d times", workers, b, rg.Lo+i, n)
				}
			}
			for k := 1; k < len(q.chunks); k++ {
				if q.chunks[k].rel < q.chunks[k-1].rel {
					t.Fatalf("W=%d bucket %v: relation %d queued after relation %d", workers, b, q.chunks[k].rel, q.chunks[k-1].rel)
				}
			}
		}
	}
}

// TestBarrierWaitBounds: one worker never waits at a barrier, and at W = 2
// the idle worker time is at most one worker's share of the bucket time
// ((W−1)·Compute). The counter on /metrics is the sum of the epochs'
// BarrierWait.
func TestBarrierWaitBounds(t *testing.T) {
	g := smallSocial(t, 4)
	for _, workers := range []int{1, 2} {
		hub := obs.NewHub()
		tr := newTrainer(t, g, Config{Epochs: 3, Workers: workers, Seed: 5, Obs: hub})
		stats, err := tr.Train(nil)
		if err != nil {
			t.Fatal(err)
		}
		var sum int64
		for _, s := range stats {
			if s.BarrierWait < 0 || s.BarrierWait > time.Duration(workers-1)*s.Compute {
				t.Errorf("W=%d epoch %d: barrier wait %v, compute %v", workers, s.Epoch, s.BarrierWait, s.Compute)
			}
			sum += s.BarrierWait.Nanoseconds()
		}
		if got := hub.Reg.Snapshot().Counters["pbg_train_barrier_wait_ns_total"]; got != sum {
			t.Errorf("W=%d: barrier counter %d, epochs sum to %d", workers, got, sum)
		}
	}
}

// barrierWait counts each worker's idle time up to the last worker's end,
// whichever worker that is.
func TestBarrierWaitSumsIdleToLastWorker(t *testing.T) {
	t0 := time.Now()
	ends := []time.Duration{2 * time.Millisecond, 0, 5 * time.Millisecond, 4 * time.Millisecond}
	workers := make([]*workerState, len(ends))
	for i, d := range ends {
		workers[i] = &workerState{done: t0.Add(d)}
	}
	if got, want := barrierWait(workers), 3*time.Millisecond+5*time.Millisecond+time.Millisecond; got != want {
		t.Fatalf("barrier wait %v, want %v", got, want)
	}
	if got := barrierWait(workers[:1]); got != 0 {
		t.Fatalf("one worker waited %v", got)
	}
}
