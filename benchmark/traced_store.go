package main

import (
	"sync/atomic"
	"time"

	"pbg/internal/obs"
	"pbg/internal/storage"
)

// tracedStore decorates a storage.Store in traced runs: every Acquire,
// Release and Flush is a span under the run's root and adds to a busy-time
// counter. It forwards the optional capabilities train.New discovers by type
// assertion (SetCodec, SetMaxResidentBytes, SetObs, Drain) the way
// storetest.NewPassthrough does; a decorator that dropped one would
// silently change the regime being measured.
type tracedStore struct {
	inner  storage.Store
	parent *obs.Span

	acquireNs, releaseNs, flushNs atomic.Int64
	acquires, releases            atomic.Int64
}

func newTracedStore(inner storage.Store, parent *obs.Span) *tracedStore {
	return &tracedStore{inner: inner, parent: parent}
}

func (s *tracedStore) Acquire(t, p int) (*storage.Shard, error) {
	sp := s.parent.Child("storage.acquire")
	start := time.Now()
	sh, err := s.inner.Acquire(t, p)
	s.acquireNs.Add(int64(time.Since(start)))
	s.acquires.Add(1)
	sp.End()
	return sh, err
}

func (s *tracedStore) Release(t, p int) error {
	sp := s.parent.Child("storage.release")
	start := time.Now()
	err := s.inner.Release(t, p)
	s.releaseNs.Add(int64(time.Since(start)))
	s.releases.Add(1)
	sp.End()
	return err
}

func (s *tracedStore) Prefetch(t, p int) { s.inner.Prefetch(t, p) }

func (s *tracedStore) Flush() error {
	sp := s.parent.Child("storage.flush")
	start := time.Now()
	err := s.inner.Flush()
	s.flushNs.Add(int64(time.Since(start)))
	sp.End()
	return err
}

func (s *tracedStore) ResidentBytes() int64 { return s.inner.ResidentBytes() }

func (s *tracedStore) Close() error { return s.inner.Close() }

func (s *tracedStore) SetCodec(c storage.Codec) {
	if f, ok := s.inner.(interface{ SetCodec(storage.Codec) }); ok {
		f.SetCodec(c)
	}
}

func (s *tracedStore) SetMaxResidentBytes(n int64) {
	if f, ok := s.inner.(interface{ SetMaxResidentBytes(int64) }); ok {
		f.SetMaxResidentBytes(n)
	}
}

func (s *tracedStore) SetObs(h *obs.Hub) {
	if f, ok := s.inner.(interface{ SetObs(*obs.Hub) }); ok {
		f.SetObs(h)
	}
}

func (s *tracedStore) Drain() error {
	if f, ok := s.inner.(interface{ Drain() error }); ok {
		return f.Drain()
	}
	return nil
}

// report emits the storage.* span rows: what the training thread spent
// inside the store's calls.
func (s *tracedStore) report(r *run) {
	r.set("storage.acquire_busy_s", time.Duration(s.acquireNs.Load()).Seconds(), "s")
	r.set("storage.acquire_calls", float64(s.acquires.Load()), "count")
	r.set("storage.release_busy_s", time.Duration(s.releaseNs.Load()).Seconds(), "s")
	r.set("storage.flush_s", time.Duration(s.flushNs.Load()).Seconds(), "s")
}
