package storage

import (
	"fmt"
	"sync"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/partition"
)

// The plan-replay fixtures: a store driven by the calls the pipelined epoch
// executor makes — release what the bucket no longer needs, hint and acquire
// what it does, hint the next buckets — with a one-cell mutation standing in
// for training. The property test, the plan accounting test and
// BenchmarkCachePlanReplay share them.

// The swap regime of benchmark/'s social_ooc workload: one entity type in 16
// partitions, a budget of 6 shards, the lookahead the controller settles on,
// and the budget_aware order planned — as train.BufferSlotsFor prices it —
// for one slot less than the budget holds (the in-flight shard's allowance).
const (
	oocParts     = 16
	oocSlots     = 6
	oocLookahead = 2
)

func partitionedSchema(nodes, parts int) *graph.Schema {
	return graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: nodes, NumPartitions: parts}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
}

func oocPlan(tb testing.TB) []partition.Bucket {
	tb.Helper()
	order, err := partition.OrderForBuffer(partition.OrderBudgetAware, oocParts, oocParts, 1, oocSlots-1)
	if err != nil {
		tb.Fatal(err)
	}
	return order
}

// replayEpoch drives st through one epoch of order. touch runs on every
// shard of every bucket while the bucket holds it.
func replayEpoch(st Store, order []partition.Bucket, lookahead int, touch func(*Shard)) error {
	held := map[int]*Shard{}
	release := func(keep map[int]bool) error {
		for p := range held {
			if !keep[p] {
				delete(held, p)
				if err := st.Release(0, p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	for i, b := range order {
		need := map[int]bool{}
		for _, p := range b.Parts() {
			need[p] = true
		}
		if err := release(need); err != nil {
			return err
		}
		for _, p := range b.Parts() {
			if held[p] == nil {
				st.Prefetch(0, p)
			}
		}
		for _, p := range b.Parts() {
			if held[p] == nil {
				sh, err := st.Acquire(0, p)
				if err != nil {
					return err
				}
				held[p] = sh
			}
		}
		for l := 1; l <= lookahead && i+l < len(order); l++ {
			for _, p := range order[i+l].Parts() {
				if held[p] == nil {
					st.Prefetch(0, p)
				}
			}
		}
		for _, p := range b.Parts() {
			touch(held[p])
		}
	}
	return release(nil)
}

// eagerStore is the write policy storage.Cache had before it retained dirty
// shards, written plainly as the benchmark's reference: every last Release
// stores the shard, then keeps it clean while it fits; a miss evicts clean
// shards LRU-first. Synchronous and single-threaded — it exists to count
// the writes and bytes that policy costs on a plan, not to be fast.
type eagerStore struct {
	files   *shardFiles
	slots   int
	clock   int64
	entries map[int]*eagerEntry
	loads   int64
	writes  int64
}

type eagerEntry struct {
	sh      *Shard
	refs    int
	lastUse int64
}

func newEagerStore(dir string, schema *graph.Schema, dim, slots int) *eagerStore {
	return &eagerStore{
		files:   &shardFiles{dir: dir, schema: schema, dim: dim, seed: 1, scale: 1},
		slots:   slots,
		entries: map[int]*eagerEntry{},
	}
}

func (s *eagerStore) Acquire(_, p int) (*Shard, error) {
	e := s.entries[p]
	if e == nil {
		for len(s.entries) >= s.slots {
			victim := -1
			for q, c := range s.entries {
				if c.refs == 0 && (victim < 0 || c.lastUse < s.entries[victim].lastUse) {
					victim = q
				}
			}
			if victim < 0 {
				break // everything is referenced: run over, as the cache does
			}
			delete(s.entries, victim)
		}
		sh, err := s.files.Load(0, p, nil)
		if err != nil {
			return nil, err
		}
		s.loads++
		e = &eagerEntry{sh: sh}
		s.entries[p] = e
	}
	e.refs++
	return e.sh, nil
}

func (s *eagerStore) Release(_, p int) error {
	e := s.entries[p]
	if e == nil || e.refs == 0 {
		return fmt.Errorf("eagerStore: Release of unacquired shard %d", p)
	}
	if e.refs--; e.refs > 0 {
		return nil
	}
	s.clock++
	e.lastUse = s.clock
	s.writes++
	return s.files.Store(e.sh)
}

func (s *eagerStore) Prefetch(int, int)    {}
func (s *eagerStore) Flush() error         { return nil }
func (s *eagerStore) Close() error         { return nil }
func (s *eagerStore) ResidentBytes() int64 { return 0 }

// recordingFiles is the files backend with every Store call observable: the
// keys in call order, and a hook that runs before the write and may hold it
// or fail it.
type recordingFiles struct {
	*shardFiles
	mu      sync.Mutex
	stored  []int
	onStore func(*Shard) error
}

func (r *recordingFiles) Store(sh *Shard) error {
	r.mu.Lock()
	r.stored = append(r.stored, sh.Part)
	hook := r.onStore
	r.mu.Unlock()
	if hook != nil {
		if err := hook(sh); err != nil {
			return err
		}
	}
	return r.shardFiles.Store(sh)
}

func (r *recordingFiles) setHook(h func(*Shard) error) {
	r.mu.Lock()
	r.onStore = h
	r.mu.Unlock()
}

// stores returns the partitions stored so far, in call order.
func (r *recordingFiles) stores() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]int(nil), r.stored...)
}

// newRecordingCache builds a write-back cache of dim-8 shards over a fresh
// directory, budgeted to budgetShards shards (0 = no budget), and waits out
// its I/O pool before the directory is removed.
func newRecordingCache(t *testing.T, schema *graph.Schema, budgetShards int64) (*Cache, *recordingFiles) {
	t.Helper()
	const dim = 8
	files := &recordingFiles{shardFiles: &shardFiles{dir: t.TempDir(), schema: schema, dim: dim, seed: 1, scale: 1}}
	c := NewCache(files, WriteBack, schema, dim, newDiskMetrics)
	c.SetMaxResidentBytes(budgetShards * c.shardBytes(0, 0))
	t.Cleanup(func() { _ = c.Close() }) // write errors are the tests' own subject
	return c, files
}

func (r *recordingFiles) durableCell(t *testing.T, p int) float32 {
	t.Helper()
	sh, err := ReadShard(ShardPath(r.dir, 0, p))
	if err != nil {
		t.Fatal(err)
	}
	return sh.Row(0)[0]
}
