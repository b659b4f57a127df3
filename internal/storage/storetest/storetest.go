// Package storetest provides a deterministic, instrumented storage.Store
// for pipeline and controller tests: an ordered event log of
// acquire/prefetch/release/evict calls, a refcount ledger for leak checks,
// per-shard gates that hold loads until the test releases them (channel
// gating instead of wall-clock latency — no sleeps anywhere), and scripted
// acquire/write-back errors.
//
// Two modes:
//
//   - New(inner) emulates the asynchronous Prefetch contract itself on top
//     of any inner store (typically a MemStore): a hint starts a background
//     "load" that completes when its gate opens, and an Acquire joins the
//     pending load exactly like DiskStore joins an in-flight prefetch. This
//     makes executor behaviour — overlap, join, abort — testable with zero
//     real I/O and zero timing assumptions.
//
//   - NewPassthrough(inner) forwards hints to the inner store's own
//     machinery (DiskStore, the distributed remote store) and only records
//     events and refcounts; gates and scripted errors do not apply. Use it
//     to assert invariants (budgets, leaks) over a real store.
package storetest

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"pbg/internal/graph"
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
// projections, write-back snapshots) cannot hide between a test's own
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
	// KindPrefetch is a Prefetch hint (logged even when it is a no-op).
	KindPrefetch Kind = "prefetch"
	// KindAcquire is an Acquire call entering the store.
	KindAcquire Kind = "acquire"
	// KindAcquired is an Acquire call returning successfully.
	KindAcquired Kind = "acquired"
	// KindRelease is a Release call.
	KindRelease Kind = "release"
	// KindEvict marks a refcount reaching zero — the point where a real
	// disk store would schedule the write-back eviction.
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

func newGate() *Gate {
	return &Gate{started: make(chan struct{}), open: make(chan struct{})}
}

// Started closes when a load first blocks on this gate.
func (g *Gate) Started() <-chan struct{} { return g.started }

// Open releases every current and future load held by the gate.
func (g *Gate) Open() { g.openOnce.Do(func() { close(g.open) }) }

// pass is the load-side of the gate: announce, then wait for Open.
func (g *Gate) pass() {
	g.startedOnce.Do(func() { close(g.started) })
	<-g.open
}

// pendingLoad is one emulated in-flight shard load; err is set before done
// closes and immutable afterwards.
type pendingLoad struct {
	done chan struct{}
	err  error
}

// Store is the instrumented storage.Store wrapper.
type Store struct {
	inner       storage.Store
	passthrough bool

	mu          sync.Mutex
	events      []Event
	refs        map[Key]int
	loading     map[Key]*pendingLoad
	gates       map[Key]*Gate
	acquireErrs map[Key][]error
	releaseErrs map[Key][]error
}

// New wraps inner with full emulation (gates, scripted errors, async
// prefetch loads run by the wrapper).
func New(inner storage.Store) *Store {
	return &Store{
		inner:       inner,
		refs:        make(map[Key]int),
		loading:     make(map[Key]*pendingLoad),
		gates:       make(map[Key]*Gate),
		acquireErrs: make(map[Key][]error),
		releaseErrs: make(map[Key][]error),
	}
}

// NewPassthrough wraps inner with instrumentation only: every call
// forwards, the wrapper just records events and the refcount ledger.
func NewPassthrough(inner storage.Store) *Store {
	s := New(inner)
	s.passthrough = true
	return s
}

// GateLoad registers (or returns) the gate holding loads of shard (t,p).
// Must be set up before the load it should catch is issued. Emulation mode
// only.
func (s *Store) GateLoad(t, p int) *Gate {
	k := Key{t, p}
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.gates[k]
	if !ok {
		g = newGate()
		s.gates[k] = g
	}
	return g
}

// FailAcquire scripts the next load of shard (t,p) to fail with err. When
// the load is a prefetch, the failure is held until an Acquire joins it —
// the deterministic version of a failed DiskStore background load. The
// error is one-shot: the retry after it succeeds. Emulation mode only.
func (s *Store) FailAcquire(t, p int, err error) {
	k := Key{t, p}
	s.mu.Lock()
	s.acquireErrs[k] = append(s.acquireErrs[k], err)
	s.mu.Unlock()
}

// FailRelease scripts the next Release of shard (t,p) to return err after
// decrementing the refcount — the shape of a DiskStore sticky write-back
// error. Emulation mode only.
func (s *Store) FailRelease(t, p int, err error) {
	k := Key{t, p}
	s.mu.Lock()
	s.releaseErrs[k] = append(s.releaseErrs[k], err)
	s.mu.Unlock()
}

func popErrLocked(m map[Key][]error, k Key) error {
	q := m[k]
	if len(q) == 0 {
		return nil
	}
	err := q[0]
	m[k] = q[1:]
	return err
}

func (s *Store) logLocked(kind Kind, k Key) {
	s.events = append(s.events, Event{kind, k})
}

// Prefetch implements storage.Store.
func (s *Store) Prefetch(t, p int) {
	k := Key{t, p}
	s.mu.Lock()
	s.logLocked(KindPrefetch, k)
	if s.passthrough {
		s.mu.Unlock()
		s.inner.Prefetch(t, p)
		return
	}
	if s.refs[k] > 0 || s.loading[k] != nil {
		s.mu.Unlock()
		return
	}
	ld := &pendingLoad{done: make(chan struct{})}
	s.loading[k] = ld
	gate := s.gates[k]
	s.mu.Unlock()
	go func() {
		if gate != nil {
			gate.pass()
		}
		s.mu.Lock()
		// A failed load stays pending until an Acquire joins and consumes
		// the error — deterministic delivery, where a real store's failed
		// background load may evaporate before anyone observes it.
		ld.err = popErrLocked(s.acquireErrs, k)
		close(ld.done)
		s.mu.Unlock()
	}()
}

// Acquire implements storage.Store: it joins a pending emulated load (or
// blocks on the shard's gate for a cold load), honours scripted errors,
// then forwards to the inner store and bumps the ledger.
func (s *Store) Acquire(t, p int) (*storage.Shard, error) {
	k := Key{t, p}
	s.mu.Lock()
	s.logLocked(KindAcquire, k)
	if !s.passthrough {
		passedGate := false
		for {
			if ld := s.loading[k]; ld != nil {
				s.mu.Unlock()
				<-ld.done
				s.mu.Lock()
				if s.loading[k] == ld {
					delete(s.loading, k)
				}
				if ld.err != nil {
					s.mu.Unlock()
					return nil, ld.err
				}
				break
			}
			if s.refs[k] > 0 {
				break // resident: no load needed
			}
			if err := popErrLocked(s.acquireErrs, k); err != nil {
				s.mu.Unlock()
				return nil, err
			}
			if gate := s.gates[k]; gate != nil && !passedGate {
				s.mu.Unlock()
				gate.pass()
				s.mu.Lock()
				passedGate = true
				continue // re-check: the world may have moved while gated
			}
			break
		}
	}
	s.mu.Unlock()
	sh, err := s.inner.Acquire(t, p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.refs[k]++
	s.logLocked(KindAcquired, k)
	s.mu.Unlock()
	return sh, nil
}

// Release implements storage.Store: the ledger is decremented first (a
// refcount reaching zero logs the logical eviction point), then scripted
// write-back errors surface, then the inner store releases.
func (s *Store) Release(t, p int) error {
	k := Key{t, p}
	s.mu.Lock()
	s.logLocked(KindRelease, k)
	if s.refs[k] <= 0 {
		s.mu.Unlock()
		return fmt.Errorf("storetest: Release of unacquired shard (%d,%d)", t, p)
	}
	s.refs[k]--
	if s.refs[k] == 0 {
		delete(s.refs, k)
		s.logLocked(KindEvict, k)
	}
	var scripted error
	if !s.passthrough {
		scripted = popErrLocked(s.releaseErrs, k)
	}
	s.mu.Unlock()
	if err := s.inner.Release(t, p); err != nil {
		return err
	}
	return scripted
}

// SetMaxResidentBytes forwards the admission budget to the inner store when
// it enforces one (DiskStore, the distributed remote store). Without this
// the wrapper would silently disable budget enforcement for any trainer
// built over it — train.New plumbs Config.MemBudgetBytes through exactly
// this interface.
func (s *Store) SetMaxResidentBytes(n int64) {
	if b, ok := s.inner.(interface{ SetMaxResidentBytes(int64) }); ok {
		b.SetMaxResidentBytes(n)
	}
}

// SetCodec forwards the shard codec to the inner store when it encodes one
// (DiskStore). Mirrors SetMaxResidentBytes: train.New plumbs Config.Codec
// through exactly this interface, and without the forwarder a harness-
// wrapped DiskStore would silently write fp32 while the trainer's budget
// controller priced shards quantized.
func (s *Store) SetCodec(c storage.Codec) {
	if b, ok := s.inner.(interface{ SetCodec(storage.Codec) }); ok {
		b.SetCodec(c)
	}
}

// Flush implements storage.Store.
func (s *Store) Flush() error { return s.inner.Flush() }

// ResidentBytes implements storage.Store.
func (s *Store) ResidentBytes() int64 { return s.inner.ResidentBytes() }

// Close implements storage.Store.
func (s *Store) Close() error { return s.inner.Close() }

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

// PendingLoads returns the number of emulated loads not yet consumed.
func (s *Store) PendingLoads() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.loading)
}

// LeakCheck returns an error when references are still outstanding — every
// acquired shard must eventually be released, even on aborted epochs.
// (Pending loads are not leaks: a hint takes no reference, and an unopened
// gate legitimately holds its load.)
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
