// Package storage implements the embedding persistence layer of §4.1: each
// (entity type, partition) pair owns a shard holding its embedding rows plus
// the row-wise Adagrad accumulators, and shards are swapped between memory
// and disk as training iterates over edge buckets, so at most the two
// partitions of the current bucket (plus unpartitioned types) are resident.
//
// A shard's bytes — on disk, under the serving layer's views and on the
// partition servers' wire — are described once, by Layout (layout.go). The
// swapping itself is implemented once, by Cache (cache.go): entries,
// refcounts, the background I/O pool, prefetch joins and the memory budget,
// over a two-method Backend — load shard (t,p), store a shard durably.
// DiskStore (disk.go) is the cache over a directory of shard files;
// internal/dist builds the same cache over its partition servers.
//
// Two contracts matter to callers beyond plain Acquire/Release:
//
//   - Prefetch(t, p) is a non-blocking hint that (t, p) will be Acquired
//     soon. It takes no reference and may be ignored; a later Acquire
//     returns exactly what it would have without the hint — just sooner.
//     The pipelined epoch executor issues hints for the next buckets'
//     shards while the current bucket trains.
//   - Cache.SetMaxResidentBytes(n) turns the store into a memory-budgeted
//     shard cache: resident shards, in-flight load projections, and
//     write snapshots are accounted against n — hints that don't fit are
//     dropped or shed (youngest queued hint first), a released shard stays
//     resident — dirty, unwritten — while it fits, must-have Acquires evict
//     unreferenced shards LRU-by-last-release (a dirty one is written
//     first), and only a working set that simply cannot fit runs over
//     budget. n = 0 disables budgeting and retention entirely: a released
//     shard is written and dropped.
//
// The write rule is one: a modified shard is stored when it has to leave
// memory — at eviction (or just ahead of it), at Flush, Drain and Close, and
// at the last Release of a cache that retains nothing. Cache.Drain is the
// call after which everything nobody holds is on the backend.
//
// Cache.IOStats reports the resulting decisions as cumulative per-cache
// counters: Loads and Writes are the raw backend I/O; Admits counts loads
// that passed budget admission; PrefetchSheds counts hints the budget
// refused; ForcedEvicts counts shards evicted to make room for a must-have;
// CleanWaits counts Acquires that had to wait for a write. The budget_aware
// bucket order (internal/partition) exists to drive ForcedEvicts toward
// zero by sequencing buckets so the cache's working set turns over as
// little as possible.
package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"pbg/internal/graph"
	"pbg/internal/rng"
)

// ParseByteSize parses a human-readable byte count for memory-budget flags:
// a plain number is bytes, and the binary suffixes K/KB/KiB, M/MB/MiB,
// G/GB/GiB, T/TB/TiB (case-insensitive, powers of 1024) scale it. "0" or
// "" means unbounded. Longer suffixes take precedence over their suffixes
// ("1TiB" is a tebibyte, not "1TI" bytes), which the suffix list order
// below encodes: the bare "B" must come last or it would strip the B off
// every two-letter suffix.
func ParseByteSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"TIB", 1 << 40}, {"TB", 1 << 40}, {"T", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			s = strings.TrimSpace(s[:len(s)-len(suf.name)])
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("storage: bad byte size %q", s)
	}
	return int64(v * float64(mult)), nil
}

// Shard holds the parameters of one partition of one entity type.
type Shard struct {
	TypeIndex int // entity type index within the schema
	Part      int
	Count     int // number of entity rows
	Dim       int
	Embs      []float32 // Count×Dim embeddings, row major
	Acc       []float32 // Count row-wise Adagrad accumulators
}

// NewShard allocates a zeroed shard.
func NewShard(typeIndex, part, count, dim int) *Shard {
	return &Shard{
		TypeIndex: typeIndex,
		Part:      part,
		Count:     count,
		Dim:       dim,
		Embs:      make([]float32, count*dim),
		Acc:       make([]float32, count),
	}
}

// Init fills the shard with N(0, scale²/√d) entries, the initialisation PBG
// uses so early scores are O(scale).
func (s *Shard) Init(r *rng.RNG, scale float32) {
	std := scale / float32(math.Sqrt(float64(s.Dim)))
	for i := range s.Embs {
		s.Embs[i] = r.NormFloat32() * std
	}
	for i := range s.Acc {
		s.Acc[i] = 0
	}
}

// Row returns embedding row i as a slice view.
//
//pbg:hotpath
func (s *Shard) Row(i int) []float32 {
	return s.Embs[i*s.Dim : (i+1)*s.Dim]
}

// Bytes returns the approximate in-memory size of the shard.
func (s *Shard) Bytes() int64 {
	return int64(len(s.Embs)+len(s.Acc)) * 4
}

// ProjectedShardBytes is the fp32 size shard (t,p) will occupy, priced from
// the schema alone — it matches Shard.Bytes for a shard of that shape
// (count×dim embeddings plus count Adagrad cells, float32 each). Cache
// admission and the lookahead controller's window projections both price
// shards through this helper — or through ProjectedShardBytesCodec when a
// run stores shards quantized — so accounting cannot drift from the bytes
// actually held.
func ProjectedShardBytes(schema *graph.Schema, dim, t, p int) int64 {
	return ProjectedShardBytesCodec(schema, dim, t, p, CodecFP32)
}

// tmpSeq distinguishes concurrent temp files targeting the same path (e.g. a
// Flush racing an async write-back of the same shard): each writer renames
// its own complete temp file, so the destination is always a whole shard.
var tmpSeq atomic.Uint64

// writeFileAtomic writes the output of emit to path via a unique temp file +
// rename. emit gets the file itself; writers of many small pieces wrap it
// with buffered.
func writeFileAtomic(path string, emit func(f *os.File) error) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, tmpSeq.Add(1))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("storage: create %s: %w", tmp, err)
	}
	if err := emit(f); err != nil {
		_ = f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		// Remove the orphan: temp names are unique per attempt, so leaked
		// files would otherwise accumulate across retries.
		os.Remove(tmp)
		return err
	}
	return nil
}

// buffered adapts an emitter of many small writes to writeFileAtomic: it
// runs emit over a 1 MiB buffer and flushes it.
func buffered(emit func(w *bufio.Writer) error) func(*os.File) error {
	return func(f *os.File) error {
		w := bufio.NewWriterSize(f, 1<<20)
		if err := emit(w); err != nil {
			return err
		}
		return w.Flush()
	}
}

// ShardPath is the canonical on-disk location of shard (t, p) under dir.
// DiskStore and the durable partition servers share it, so a directory
// written by one is readable by the other.
func ShardPath(dir string, t, p int) string {
	return filepath.Join(dir, fmt.Sprintf("shard_t%d_p%d.pbg", t, p))
}

// WriteShard persists a shard to path atomically (write temp + rename) in
// the fp32 format.
func WriteShard(path string, s *Shard) error {
	return WriteShardCodec(path, s, CodecFP32)
}

// The float/int codecs below encode directly through a fixed stack buffer
// instead of reflective binary.Write/binary.Read calls, which is roughly an
// order of magnitude faster on large shards and allocation-free — shard
// (de)serialisation sits on the bucket-swap path the pipelined executor is
// trying to hide. The chunked loops are deliberately spelled out rather
// than sharing a generic core: a per-element conversion callback measures
// ~2.4× slower (the closure defeats inlining), so any change to the
// chunking logic must be mirrored across all of them. float32 blocks skip
// the loop altogether where the host's byte order is the format's.

const codecChunk = 8192 // bytes per encode/decode batch

func writeU64(w *bufio.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

// hostLittleEndian is observed once, at package initialisation: on a
// little-endian host the fp32 blocks of a shard image are the in-memory
// []float32, byte for byte, so they move as one Write or ReadFull each.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views xs as its bytes in host order.
func floatBytes(xs []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(xs))), 4*len(xs))
}

func writeFloats(w io.Writer, xs []float32) error {
	if !hostLittleEndian {
		return writeFloatsPortable(w, xs)
	}
	_, err := w.Write(floatBytes(xs))
	return err
}

func readFloats(r io.Reader, xs []float32) error {
	if !hostLittleEndian {
		return readFloatsPortable(r, xs)
	}
	_, err := io.ReadFull(r, floatBytes(xs))
	return err
}

// writeFloatsPortable is the byte-order-independent encoder: the path of a
// big-endian host, and the reference the tests hold writeFloats to.
func writeFloatsPortable(w io.Writer, xs []float32) error {
	var buf [codecChunk]byte
	for len(xs) > 0 {
		n := len(buf) / 4
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(xs[i]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func readFloatsPortable(r io.Reader, xs []float32) error {
	var buf [codecChunk]byte
	for len(xs) > 0 {
		n := len(buf) / 4
		if n > len(xs) {
			n = len(xs)
		}
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		xs = xs[n:]
	}
	return nil
}

func writeInt32s(w *bufio.Writer, xs []int32) error {
	var buf [codecChunk]byte
	for len(xs) > 0 {
		n := len(buf) / 4
		if n > len(xs) {
			n = len(xs)
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(xs[i]))
		}
		if _, err := w.Write(buf[:n*4]); err != nil {
			return err
		}
		xs = xs[n:]
	}
	return nil
}

func readInt32s(r io.Reader, xs []int32) error {
	var buf [codecChunk]byte
	for len(xs) > 0 {
		n := len(buf) / 4
		if n > len(xs) {
			n = len(xs)
		}
		if _, err := io.ReadFull(r, buf[:n*4]); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			xs[i] = int32(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		xs = xs[n:]
	}
	return nil
}

// Store provides shards keyed by (entity type, partition), abstracting over
// whether released shards are swapped out through a Cache (DiskStore to
// disk, §4.1; internal/dist to the partition servers, §4.2) or stay resident
// (MemStore, used for unpartitioned training).
type Store interface {
	// Acquire returns the shard, loading or lazily initialising it. Repeated
	// Acquires return the same shard and increase a refcount.
	Acquire(typeIndex, part int) (*Shard, error)
	// Release drops one reference; when it reaches zero a Cache writes the
	// shard to its backend and evicts it — or, under a memory budget, keeps
	// it resident and writes it when it has to leave.
	Release(typeIndex, part int) error
	// Prefetch hints that (typeIndex, part) will be Acquired soon. It must
	// not block on I/O and takes no reference: implementations may start
	// loading the shard in the background or ignore the hint entirely. A
	// subsequent Acquire returns exactly what it would have returned without
	// the hint — just sooner. The pipelined epoch executor issues this for
	// the next bucket's shards while the current bucket trains.
	Prefetch(typeIndex, part int)
	// Flush persists all resident shards without evicting (checkpointing).
	Flush() error
	// ResidentBytes reports the memory held by resident shards.
	ResidentBytes() int64
	// Close waits for the store's background I/O and releases what is behind
	// it (a final Flush for disk stores, the connections of remote ones).
	// The store must not be used afterwards.
	Close() error
}

type shardKey struct{ t, p int }

type entry struct {
	shard *Shard
	refs  int
}

// ShardSeed derives the per-shard RNG seed for (entity type t, partition p).
// Initialisation is deterministic regardless of the order in which shards
// are first touched, and the distributed partition servers use the same
// derivation so remote lazy init matches a local store bit for bit.
func ShardSeed(seed uint64, t, p int) uint64 {
	return (seed ^ uint64(t)<<32 ^ uint64(p)) + 0x9E3779B97F4A7C15
}

// newShardRNG returns the deterministic init RNG for shard (t,p).
func newShardRNG(seed uint64, t, p int) *rng.RNG {
	return rng.New(ShardSeed(seed, t, p))
}

// MemStore keeps every shard resident forever.
type MemStore struct {
	mu     sync.Mutex
	cache  map[shardKey]*entry
	schema *graph.Schema
	dim    int
	seed   uint64
	scale  float32
}

// NewMemStore creates an in-memory store with deterministic initialisation.
func NewMemStore(schema *graph.Schema, dim int, seed uint64, initScale float32) *MemStore {
	return &MemStore{cache: make(map[shardKey]*entry), schema: schema, dim: dim, seed: seed, scale: initScale}
}

// Acquire implements Store.
func (m *MemStore) Acquire(t, p int) (*Shard, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := shardKey{t, p}
	e, ok := m.cache[k]
	if !ok {
		ent := m.schema.Entities[t]
		sh := NewShard(t, p, ent.PartitionCount(p), m.dim)
		sh.Init(newShardRNG(m.seed, t, p), m.scale)
		e = &entry{shard: sh}
		m.cache[k] = e
	}
	e.refs++
	return e.shard, nil
}

// Release implements Store; shards stay resident.
func (m *MemStore) Release(t, p int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.cache[shardKey{t, p}]
	if !ok || e.refs <= 0 {
		return fmt.Errorf("storage: Release of unacquired shard (%d,%d)", t, p)
	}
	e.refs--
	return nil
}

// Prefetch implements Store (no-op: everything stays resident after first
// touch, so there is no I/O to hide).
func (m *MemStore) Prefetch(t, p int) {}

// Flush implements Store (no-op: nothing to persist).
func (m *MemStore) Flush() error { return nil }

// ResidentBytes implements Store.
func (m *MemStore) ResidentBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, e := range m.cache {
		total += e.shard.Bytes()
	}
	return total
}

// Close implements Store (no-op: everything lives in memory).
func (m *MemStore) Close() error { return nil }

// WriteEdges persists an edge list in a compact binary format (bucket files
// on the shared filesystem in Figure 2's architecture).
func WriteEdges(path string, el *graph.EdgeList) error {
	return writeFileAtomic(path, buffered(func(w *bufio.Writer) error {
		if err := writeU64(w, uint64(el.Len())); err != nil {
			return err
		}
		for _, col := range [][]int32{el.Srcs, el.Rels, el.Dsts} {
			if err := writeInt32s(w, col); err != nil {
				return err
			}
		}
		return nil
	}))
}

// ReadEdges loads an edge list written by WriteEdges.
func ReadEdges(path string) (*graph.EdgeList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	n, err := readU64(r)
	if err != nil {
		return nil, err
	}
	el := &graph.EdgeList{
		Srcs: make([]int32, n),
		Rels: make([]int32, n),
		Dsts: make([]int32, n),
	}
	for _, col := range [][]int32{el.Srcs, el.Rels, el.Dsts} {
		if err := readInt32s(r, col); err != nil {
			return nil, err
		}
	}
	return el, nil
}

// RelationState is the shared-parameter block persisted with checkpoints:
// per-relation operator parameters plus their dense Adagrad accumulators.
type RelationState struct {
	Params [][]float32
	Acc    [][]float32
}

// WriteRelations persists relation parameters.
func WriteRelations(path string, rs *RelationState) error {
	return writeFileAtomic(path, buffered(func(w *bufio.Writer) error {
		if err := writeU64(w, uint64(len(rs.Params))); err != nil {
			return err
		}
		for i := range rs.Params {
			if err := writeU64(w, uint64(len(rs.Params[i]))); err != nil {
				return err
			}
			if err := writeFloats(w, rs.Params[i]); err != nil {
				return err
			}
			if err := writeFloats(w, rs.Acc[i]); err != nil {
				return err
			}
		}
		return nil
	}))
}

// ReadRelations loads relation parameters written by WriteRelations.
func ReadRelations(path string) (*RelationState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	n, err := readU64(r)
	if err != nil {
		return nil, err
	}
	rs := &RelationState{Params: make([][]float32, n), Acc: make([][]float32, n)}
	for i := range rs.Params {
		m, err := readU64(r)
		if err != nil {
			return nil, err
		}
		rs.Params[i] = make([]float32, m)
		rs.Acc[i] = make([]float32, m)
		if err := readFloats(r, rs.Params[i]); err != nil {
			return nil, err
		}
		if err := readFloats(r, rs.Acc[i]); err != nil {
			return nil, err
		}
	}
	return rs, nil
}
