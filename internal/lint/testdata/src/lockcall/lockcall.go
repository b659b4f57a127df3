// Fixture for the lockcall analyzer: no blocking operations while a mutex
// is held.
package lockcall

import (
	"os"
	"sync"
	"time"

	"pbg/internal/storage"
	"pbg/internal/wire"
)

type S struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (s *S) channelBad() {
	s.mu.Lock()
	<-s.ch    // want "channel receive while holding s.mu"
	s.ch <- 1 // want "channel send while holding s.mu"
	s.mu.Unlock()
}

func (s *S) sleepUnderDefer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding s\.mu`
}

func (s *S) diskBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = os.ReadFile("state") // want `os\.ReadFile while holding s\.mu`
}

func (s *S) rpcBad(c *wire.Client, m *wire.Method) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = c.Call(m, 0, nil, nil) // want `rpc c\.Call while holding s\.mu`
	_ = c.Go(m, 0, nil, nil)   // want `rpc c\.Go while holding s\.mu`
}

func (s *S) storageBad(st *storage.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = st.Flush() // want `storage Store\.Flush while holding s\.mu`
}

// backendBad is an RPC (or a disk read) under the cache lock: a
// storage.Backend call blocks on whatever the backend is, and the shard
// cache's lock is the one every swap goes through.
func (s *S) backendBad(b storage.Backend) {
	s.mu.Lock()
	sh, _ := b.Load(0, 0, nil) // want `storage Backend\.Load while holding s\.mu`
	_ = b.Store(sh)            // want `storage Backend\.Store while holding s\.mu`
	s.mu.Unlock()
}

// backendUnlocked is storage.Cache's shape: publish the entry under the
// lock, drop it for the backend call, retake it to publish the result.
func (s *S) backendUnlocked(b storage.Backend) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	sh, _ := b.Load(0, 0, nil)
	s.mu.Lock()
	if sh != nil {
		s.n--
	}
	s.mu.Unlock()
}

func (s *S) selectBad() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select while holding s.mu"
	case v := <-s.ch:
		s.n = v
	default:
	}
}

// unlockFirst is the approved shape: drop the lock, then block.
func (s *S) unlockFirst() {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	if n == 0 {
		time.Sleep(time.Millisecond)
	}
}

// unlockWaitRelock is the condition-wait idiom (storage.Cache.Acquire):
// the lock is dropped around the blocking wait and retaken after.
func (s *S) unlockWaitRelock() {
	s.mu.Lock()
	for s.n == 0 {
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
		s.mu.Lock()
	}
	s.n--
	s.mu.Unlock()
}

// earlyUnlockReturn: the branch unlocks before returning, so the
// fall-through still holds but the branch body is clean.
func (s *S) earlyUnlockReturn() {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
		return
	}
	s.n--
	s.mu.Unlock()
}

// closureEscapes: function literals are not interpreted as running under
// the lock — they usually run after release.
func (s *S) closureEscapes() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() {
		time.Sleep(time.Millisecond)
	}
}
