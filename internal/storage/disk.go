package storage

import (
	"fmt"
	"os"

	"pbg/internal/graph"
	"pbg/internal/obs"
)

// shardFiles is the Cache backend of a directory of shard files, one per
// (entity type, partition), in the codec the store was given.
type shardFiles struct {
	dir    string
	schema *graph.Schema
	dim    int
	seed   uint64
	scale  float32
	codec  Codec
}

// Load reads shard (t,p)'s file, transparently decoding whatever codec it
// is in. Lazy initialisation — with the deterministic per-shard seed
// derivation shared with the distributed partition servers — only happens
// when the file verifiably does not exist: any other stat failure is an
// error, because re-initialising over a real-but-unreadable file would
// silently discard that partition's training on write-back.
func (f *shardFiles) Load(t, p int) (*Shard, error) {
	path := ShardPath(f.dir, t, p)
	_, serr := os.Stat(path)
	if serr == nil {
		return ReadShard(path)
	}
	if !os.IsNotExist(serr) {
		return nil, fmt.Errorf("storage: stat shard (%d,%d): %w", t, p, serr)
	}
	sh := NewShard(t, p, f.schema.Entities[t].PartitionCount(p), f.dim)
	sh.Init(newShardRNG(f.seed, t, p), f.scale)
	return sh, nil
}

// Store writes sh to its file atomically (temp file + rename).
func (f *shardFiles) Store(sh *Shard) error {
	return WriteShardCodec(ShardPath(f.dir, sh.TypeIndex, sh.Part), sh, f.codec)
}

// DiskStore persists shards under dir and keeps only referenced (or
// prefetched) shards in memory — the partition-swapping mode that gives the
// 88% memory reduction of §5.4.2. It is a Cache over the directory's shard
// files: every lifecycle, prefetch and memory-budget rule is the cache's
// (write-back policy — the files are this store's alone), and the only
// things DiskStore adds are the file format and a Close that persists what
// is still resident.
type DiskStore struct {
	*Cache
	files *shardFiles
}

// NewDiskStore creates a disk-backed store rooted at dir.
func NewDiskStore(dir string, schema *graph.Schema, dim int, seed uint64, initScale float32) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := &shardFiles{dir: dir, schema: schema, dim: dim, seed: seed, scale: initScale}
	return &DiskStore{Cache: NewCache(files, WriteBack, schema, dim, newDiskMetrics), files: files}, nil
}

func newDiskMetrics(reg *obs.Registry) CacheMetrics {
	return CacheMetrics{
		Loads:        reg.Counter("pbg_storage_loads_total"),
		Writes:       reg.Counter("pbg_storage_writebacks_total"),
		Admits:       reg.Counter("pbg_storage_admits_total"),
		Sheds:        reg.Counter("pbg_storage_prefetch_sheds_total"),
		ForcedEvicts: reg.Counter("pbg_storage_forced_evicts_total"),
		CleanWaits:   reg.Counter("pbg_storage_clean_waits_total"),
		Resident:     reg.Gauge("pbg_storage_resident_bytes"),
		Dirty:        reg.Gauge("pbg_storage_dirty_bytes"),
	}
}

// SetCodec selects the shard encoding for every subsequent write-back and
// flush, and switches the memory budget to codec pricing: admission,
// eviction, snapshot reservations, and ResidentBytes all charge
// ProjectedShardBytesCodec instead of fp32 bytes, so a 2–4× smaller codec
// directly admits 2–4× more shards (and a wider prefetch lookahead) at the
// same SetMaxResidentBytes budget. The budget is thus an I/O-footprint
// cost model: the store's steady state is quantized bytes on disk and in
// cache-pricing terms, with the decoded fp32 working copies of the
// currently-trained bucket living transiently above it — exactly the
// shards a trainer holds references to, which no budget may evict anyway.
//
// Like SetObs, call it once before the store's first Prefetch/Acquire;
// reads transparently decode whatever codec each file already is, so a
// directory written under a different codec converges to the new one as
// shards are rewritten.
func (d *DiskStore) SetCodec(c Codec) {
	d.files.codec = c
	d.Cache.codec = c
}

// Codec reports the store's shard encoding.
func (d *DiskStore) Codec() Codec {
	return d.files.codec
}

// Close implements Store: persist everything still resident, then reject
// further background work and wait out what is in flight.
func (d *DiskStore) Close() error {
	err := d.Flush()
	if cerr := d.Cache.Close(); err == nil {
		err = cerr
	}
	return err
}
