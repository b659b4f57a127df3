package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"

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
	// reused, when set, is told of every Store that rewrote the shard's
	// spare in place (Cache.countReused).
	reused func()
}

// Load reads shard (t,p)'s file into spare when it is large enough,
// transparently decoding whatever codec the file is in. A file whose
// header names another type, partition, row count or dim than the schema
// gives shard (t,p) is an error naming both shapes (Layout.CheckShape),
// found before its payload is read. Lazy initialisation — with the
// deterministic per-shard seed derivation shared with the distributed
// partition servers, overwriting the reshaped spare whole — only happens
// when the file verifiably does not exist: any other stat failure is an
// error, because re-initialising over a real-but-unreadable file would
// silently discard that partition's training on write-back.
func (f *shardFiles) Load(t, p int, spare *Shard) (*Shard, error) {
	path := ShardPath(f.dir, t, p)
	want := Layout{TypeIndex: t, Part: p, Count: f.schema.Entities[t].PartitionCount(p), Dim: f.dim}
	_, serr := os.Stat(path)
	if serr == nil {
		sh, _, err := readShard(path, spare, &want)
		return sh, err
	}
	if !os.IsNotExist(serr) {
		return nil, fmt.Errorf("storage: stat shard (%d,%d): %w", t, p, serr)
	}
	sh := want.shard(spare)
	sh.Init(newShardRNG(f.seed, t, p), f.scale)
	return sh, nil
}

// Store writes sh to its file atomically, keeping the image it displaces as
// the shard's spare and rewriting the spare the previous Store kept, when
// it may (replaceFile).
func (f *shardFiles) Store(sh *Shard) error {
	reused, err := writeShard(ShardPath(f.dir, sh.TypeIndex, sh.Part), sh, f.codec, true)
	if reused && f.reused != nil {
		f.reused()
	}
	return err
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

// NewDiskStore creates a disk-backed store rooted at dir. A process killed
// in the middle of a shard write leaves its temp files behind, preallocated
// to a whole shard, and every store that did not reach Close leaves its
// spares; the directory is the store's alone, so any file named like one
// (shard_t<T>_p<P>.pbg.tmp<N>, shard_t<T>_p<P>.pbg.spare) is an orphan and
// is removed here.
func NewDiskStore(dir string, schema *graph.Schema, dim int, seed uint64, initScale float32) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := removeMatching(dir, shardLeftover); err != nil {
		return nil, err
	}
	files := &shardFiles{dir: dir, schema: schema, dim: dim, seed: seed, scale: initScale}
	c := NewCache(files, WriteBack, schema, dim, newDiskMetrics)
	files.reused = c.countReused
	return &DiskStore{Cache: c, files: files}, nil
}

// shardLeftover matches exactly the temp files replaceFile creates for
// ShardPath targets and the spares it keeps beside them; shardSpare the
// spares alone.
var (
	shardLeftover = regexp.MustCompile(`^shard_t[0-9]+_p[0-9]+\.pbg\.(tmp[0-9]+|spare)$`)
	shardSpare    = regexp.MustCompile(`^shard_t[0-9]+_p[0-9]+\.pbg\.spare$`)
)

// removeMatching deletes the regular files of dir whose names match re.
func removeMatching(dir string, re *regexp.Regexp) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() && re.MatchString(e.Name()) {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("storage: remove %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

func newDiskMetrics(reg *obs.Registry) CacheMetrics {
	return CacheMetrics{
		Loads:        reg.Counter("pbg_storage_loads_total"),
		Writes:       reg.Counter("pbg_storage_writebacks_total"),
		Reused:       reg.Counter("pbg_storage_writeback_reused_total"),
		Admits:       reg.Counter("pbg_storage_admits_total"),
		Sheds:        reg.Counter("pbg_storage_prefetch_sheds_total"),
		ForcedEvicts: reg.Counter("pbg_storage_forced_evicts_total"),
		CleanWaits:   reg.Counter("pbg_storage_clean_waits_total"),
		Resident:     reg.Gauge("pbg_storage_resident_bytes"),
		Dirty:        reg.Gauge("pbg_storage_dirty_bytes"),
	}
}

// SetCodec selects the shard encoding for every subsequent write-back and
// flush. It changes the files only: the budget prices every resident shard
// at its decoded fp32 size, which is what the cache holds.
//
// Like SetObs, call it once before the store's first Prefetch/Acquire;
// reads transparently decode whatever codec each file already is, so a
// directory written under a different codec converges to the new one as
// shards are rewritten.
func (d *DiskStore) SetCodec(c Codec) {
	d.files.codec = c
}

// Dir is the directory the store swaps shards through.
func (d *DiskStore) Dir() string { return d.files.dir }

// Codec reports the store's shard encoding.
func (d *DiskStore) Codec() Codec {
	return d.files.codec
}

// Flush implements Store: the cache's Flush, after which the directory is a
// checkpoint — the shard files and nothing of the store's own — so the
// spares the write-backs kept are removed. The next write-back of each shard
// writes a fresh file again and keeps a new spare.
func (d *DiskStore) Flush() error {
	err := d.Cache.Flush()
	if serr := removeMatching(d.files.dir, shardSpare); err == nil {
		err = serr
	}
	return err
}

// Close implements Store: persist everything still resident, then reject
// further background work, wait out what is in flight, and leave the
// directory holding the shard files alone.
func (d *DiskStore) Close() error {
	err := d.Cache.Flush()
	if cerr := d.Cache.Close(); err == nil {
		err = cerr
	}
	if serr := removeMatching(d.files.dir, shardLeftover); err == nil {
		err = serr
	}
	return err
}
