// Package storage is a fixture stub mirroring the real pbg/internal/storage
// refcounting surface the pairedrelease and lockcall analyzers key on.
// Analyzers match package paths by suffix, so this stub triggers the same
// logic as the real package.
package storage

// Shard is one partition's embedding block.
type Shard struct {
	Embs []float32
}

// Store hands out refcounted shards.
type Store struct{}

// Acquire pins shard (t, p) and returns it.
func (s *Store) Acquire(t, p int) (*Shard, error) { return &Shard{}, nil }

// Release drops one reference to shard (t, p).
func (s *Store) Release(t, p int) error { return nil }

// Prefetch hints that shard (t, p) will be acquired soon.
func (s *Store) Prefetch(t, p int) {}

// Flush persists dirty shards.
func (s *Store) Flush() error { return nil }

// Drain blocks until async write-backs complete.
func (s *Store) Drain() error { return nil }

// Close flushes and shuts the store down.
func (s *Store) Close() error { return nil }

// Backend is where a cache's shards live while they are not in memory.
type Backend interface {
	Load(t, p int) (*Shard, error)
	Store(sh *Shard) error
}
