// Package storetest provides what pipeline and cache tests drive a store
// with:
//
//   - Store wraps any storage.Store and records an ordered event log of
//     acquire/prefetch/release/evict calls and a refcount ledger for leak
//     checks. Every call forwards; it adds no behaviour of its own.
//   - Backend is an in-memory storage.Backend with per-shard gates that hold
//     loads until the test releases them (channel gating instead of
//     wall-clock latency — no sleeps anywhere) and scripted load and store
//     errors.
//   - NewCache puts the two together around a real storage.Cache, so
//     prefetch joins, aborts and I/O–compute overlap are tested against the
//     cache every store runs on.
package storetest

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/rng"
	"pbg/internal/storage"
)

// NewDisk opens a DiskStore for a test and closes it when the test ends;
// dir "" means a fresh tb.TempDir(). Cleanups run last-in first-out and the
// directory's removal was registered when it was created, so the Close
// below — which waits out every asynchronous write-back — runs before the
// directory is removed. An unclosed store's write-back racing that removal
// is the "TempDir RemoveAll cleanup: directory not empty" flake. Tests may
// still Close explicitly: a second Close is harmless.
func NewDisk(tb testing.TB, dir string, schema *graph.Schema, dim int, seed uint64, initScale float32) *storage.DiskStore {
	tb.Helper()
	if dir == "" {
		dir = tb.TempDir()
	}
	ds, err := storage.NewDiskStore(dir, schema, dim, seed, initScale)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := ds.Close(); err != nil {
			tb.Errorf("storetest: closing DiskStore: %v", err)
		}
	})
	return ds
}

// NewCache returns a write-back storage.Cache of dim-wide shards over a
// fresh Backend whose lazy inits derive from seed, and the Store wrapping
// it. The cache is closed when the test ends, after every gate is opened so
// no held load can stall the Close.
func NewCache(tb testing.TB, schema *graph.Schema, dim int, seed uint64) (*Store, *Backend, *storage.Cache) {
	tb.Helper()
	b := &Backend{schema: schema, dim: dim, seed: seed, shards: map[Key]*memShard{}}
	// Nothing reads the harness's series (tests read IOStats), so they share
	// one counter and one gauge.
	c := storage.NewCache(b, storage.WriteBack, schema, dim, func(reg *obs.Registry) storage.CacheMetrics {
		n, g := reg.Counter("pbg_storetest_events_total"), reg.Gauge("pbg_storetest_bytes")
		return storage.CacheMetrics{Loads: n, Writes: n, Admits: n, Sheds: n, ForcedEvicts: n, CleanWaits: n, Resident: g, Dirty: g}
	})
	tb.Cleanup(func() {
		b.mu.Lock()
		for _, s := range b.shards {
			if s.gate != nil {
				s.gate.Open()
			}
		}
		b.mu.Unlock()
		if err := c.Close(); err != nil {
			tb.Errorf("storetest: closing cache: %v", err)
		}
	})
	return New(c), b, c
}

// CheckBudget reports a violation of the cache's memory-budget invariants
// in one State snapshot: the admission measure must cover everything
// resident, and resident bytes may exceed the budget only while nothing is
// left to evict — every shard still cached is referenced, awaited, or in
// flight (a dirty idle shard counts as left to evict: the cache must have
// started its write).
func CheckBudget(st storage.CacheState) error {
	if st.Accounted < st.Resident {
		return fmt.Errorf("storetest: accounted %d bytes < resident %d", st.Accounted, st.Resident)
	}
	if st.Budget == 0 || st.Resident <= st.Budget {
		return nil
	}
	for _, e := range st.Entries {
		if e.Refs == 0 && e.Waiters == 0 && !e.Loading && !e.Writing {
			return fmt.Errorf("storetest: resident %d over budget %d while idle shard (%d,%d) is evictable (clean=%v)",
				st.Resident, st.Budget, e.Type, e.Part, e.Clean)
		}
	}
	return nil
}

// WatchBudget polls c's State from a goroutine — so transients (prefetch
// projections, write-backs in flight) cannot hide between a test's own
// samples — until the returned stop is called; stop reports the largest
// resident size seen and the first CheckBudget violation.
func WatchBudget(c *storage.Cache) (stop func() (peak int64, err error)) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak int64
	var first error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st := c.State()
			peak = max(peak, st.Resident)
			if err := CheckBudget(st); err != nil && first == nil {
				first = err
			}
			runtime.Gosched()
		}
	}()
	return func() (int64, error) {
		close(done)
		wg.Wait()
		return peak, first
	}
}

// Key identifies a shard: (entity type index, partition).
type Key struct{ Type, Part int }

// Kind labels one logged store operation.
type Kind string

const (
	KindPrefetch Kind = "prefetch" // a Prefetch hint (logged even when it is a no-op)
	KindAcquire  Kind = "acquire"  // an Acquire call entering the store
	KindAcquired Kind = "acquired" // an Acquire call returning successfully
	KindRelease  Kind = "release"  // a Release call
	// KindEvict marks a refcount reaching zero — the point where a cache
	// retires the shard (writes it, keeps it dirty, or drops it).
	KindEvict Kind = "evict"
)

// Event is one entry of the ordered operation log.
type Event struct {
	Kind Kind
	Key  Key
}

// Gate holds loads of one shard until the test opens it. Started() closes
// when the first load blocks on the gate, giving tests a deterministic
// handshake ("the executor is now stalled on this shard") without polling
// or sleeping.
type Gate struct {
	startedOnce sync.Once
	openOnce    sync.Once
	started     chan struct{}
	open        chan struct{}
}

// Started closes when a load first blocks on this gate.
func (g *Gate) Started() <-chan struct{} { return g.started }

// Open releases every current and future load held by the gate.
func (g *Gate) Open() { g.openOnce.Do(func() { close(g.open) }) }

// Backend is an in-memory storage.Backend. A stored shard is kept as its
// fp32 image — a copy, because the cache reuses what it stored — and a
// shard never stored loads as the deterministic lazy init a MemStore or
// DiskStore with the same seed would give it (storage.ShardSeed, scale 1).
type Backend struct {
	schema *graph.Schema
	dim    int
	seed   uint64

	mu     sync.Mutex
	shards map[Key]*memShard
}

// memShard is what a Backend holds for one shard: its image (nil until
// stored), its gate and its scripted errors.
type memShard struct {
	image             []byte
	gate              *Gate
	loadErr, storeErr error
}

// at runs f on shard (t,p)'s record under the backend's lock.
func (b *Backend) at(t, p int, f func(s *memShard)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.shards[Key{t, p}]
	if s == nil {
		s = &memShard{}
		b.shards[Key{t, p}] = s
	}
	f(s)
}

// GateLoad registers (or returns) the gate holding loads of shard (t,p).
// Set it up before the load it should catch is issued.
func (b *Backend) GateLoad(t, p int) (g *Gate) {
	b.at(t, p, func(s *memShard) {
		if s.gate == nil {
			s.gate = &Gate{started: make(chan struct{}), open: make(chan struct{})}
		}
		g = s.gate
	})
	return g
}

// FailLoad makes every load of shard (t,p) fail with err — after its gate,
// if it has one — until FailLoad(t, p, nil) clears it.
func (b *Backend) FailLoad(t, p int, err error) { b.at(t, p, func(s *memShard) { s.loadErr = err }) }

// FailStore makes every store of shard (t,p) fail with err until
// FailStore(t, p, nil) clears it.
func (b *Backend) FailStore(t, p int, err error) { b.at(t, p, func(s *memShard) { s.storeErr = err }) }

// Load implements storage.Backend, decoding into spare when it is large
// enough.
func (b *Backend) Load(t, p int, spare *storage.Shard) (*storage.Shard, error) {
	var gate *Gate
	b.at(t, p, func(s *memShard) { gate = s.gate })
	if gate != nil { // announce, then wait for Open
		gate.startedOnce.Do(func() { close(gate.started) })
		<-gate.open
	}
	var img []byte
	var err error
	b.at(t, p, func(s *memShard) { img, err = s.image, s.loadErr })
	if err != nil {
		return nil, err
	}
	if img == nil {
		sh := storage.NewShard(t, p, b.schema.Entities[t].PartitionCount(p), b.dim)
		sh.Init(rng.New(storage.ShardSeed(b.seed, t, p)), 1)
		return sh, nil
	}
	l, err := storage.ParseLayout(img, int64(len(img)))
	if err != nil {
		return nil, err
	}
	return l.DecodeInto(bytes.NewReader(img[l.HeaderBytes():]), spare)
}

// Store implements storage.Backend.
func (b *Backend) Store(sh *storage.Shard) error {
	img, err := storage.LayoutOf(sh, storage.CodecFP32).Encode(sh)
	if err != nil {
		return err
	}
	b.at(sh.TypeIndex, sh.Part, func(s *memShard) {
		if err = s.storeErr; err == nil {
			s.image = img
		}
	})
	return err
}

// Store is the instrumented storage.Store wrapper: the embedded store takes
// every call, Prefetch, Acquire and Release through the log first.
type Store struct {
	storage.Store

	mu     sync.Mutex
	events []Event
	refs   map[Key]int
}

// New wraps inner: every call forwards, and the wrapper records the event
// log and the refcount ledger.
func New(inner storage.Store) *Store {
	return &Store{Store: inner, refs: make(map[Key]int)}
}

// Prefetch implements storage.Store.
func (s *Store) Prefetch(t, p int) {
	s.mu.Lock()
	s.events = append(s.events, Event{KindPrefetch, Key{t, p}})
	s.mu.Unlock()
	s.Store.Prefetch(t, p)
}

// Acquire implements storage.Store: it forwards and bumps the ledger.
func (s *Store) Acquire(t, p int) (*storage.Shard, error) {
	k := Key{t, p}
	s.mu.Lock()
	s.events = append(s.events, Event{KindAcquire, k})
	s.mu.Unlock()
	sh, err := s.Store.Acquire(t, p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.refs[k]++
	s.events = append(s.events, Event{KindAcquired, k})
	s.mu.Unlock()
	return sh, nil
}

// Release implements storage.Store: the ledger is decremented first (a
// refcount reaching zero logs the logical eviction point), then the inner
// store releases.
func (s *Store) Release(t, p int) error {
	k := Key{t, p}
	s.mu.Lock()
	s.events = append(s.events, Event{KindRelease, k})
	if s.refs[k] <= 0 {
		s.mu.Unlock()
		return fmt.Errorf("storetest: Release of unacquired shard (%d,%d)", t, p)
	}
	s.refs[k]--
	if s.refs[k] == 0 {
		delete(s.refs, k)
		s.events = append(s.events, Event{KindEvict, k})
	}
	s.mu.Unlock()
	return s.Store.Release(t, p)
}

// SetMaxResidentBytes forwards the admission budget to the inner store when
// it enforces one: train.New plumbs Config.MemBudgetBytes through exactly
// this interface, so without it a wrapped store would run unbudgeted.
func (s *Store) SetMaxResidentBytes(n int64) {
	if b, ok := s.Store.(interface{ SetMaxResidentBytes(int64) }); ok {
		b.SetMaxResidentBytes(n)
	}
}

// Events returns a snapshot of the operation log.
func (s *Store) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// CountEvents counts logged events of the given kind for key k.
func (s *Store) CountEvents(kind Kind, k Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.events {
		if e.Kind == kind && e.Key == k {
			n++
		}
	}
	return n
}

// FirstIndex returns the log position of the first event of the given kind
// for key k, or -1.
func (s *Store) FirstIndex(kind Kind, k Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, e := range s.events {
		if e.Kind == kind && e.Key == k {
			return i
		}
	}
	return -1
}

// Refs returns the ledger refcount of shard (t,p).
func (s *Store) Refs(t, p int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refs[Key{t, p}]
}

// Outstanding returns the total number of unreleased references.
func (s *Store) Outstanding() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.refs {
		n += r
	}
	return n
}

// LeakCheck returns an error when references are still outstanding — every
// acquired shard must eventually be released, even on aborted epochs.
// (Loads in flight are not leaks: a hint takes no reference, and an
// unopened gate legitimately holds its load.)
func (s *Store) LeakCheck() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, r := range s.refs {
		if r != 0 {
			return fmt.Errorf("storetest: shard (%d,%d) leaked %d references", k.Type, k.Part, r)
		}
	}
	return nil
}
