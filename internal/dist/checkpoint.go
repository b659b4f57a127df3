package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pbg/internal/graph"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// manifestName is the checkpoint manifest's filename inside the checkpoint
// directory (the same directory the durable partition servers write shards
// to, so one directory is a complete restartable model).
const manifestName = "MANIFEST.json"

// Manifest is the consistency cut a checkpoint records (see Cuts.Write):
// the epoch in progress and the buckets already committed in it. With the
// durable shard files and relations.pbg beside it, it lets a crashed run
// resume from the cut instead of epoch 0.
type Manifest struct {
	// Epoch is the lock-server epoch at the cut (0 = before the first
	// StartEpoch).
	Epoch int
	// Done lists the buckets committed in Epoch at the cut.
	Done []partition.Bucket
}

// WriteManifest atomically persists m into dir (storage.WriteFileAtomic,
// so a crash mid-checkpoint leaves the previous manifest intact).
func WriteManifest(dir string, m *Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(filepath.Join(dir, manifestName), data)
}

// ReadManifest loads dir's checkpoint manifest and passes it through the
// gate a resume trusts: the epoch is not negative, and Done names each
// bucket at most once and only buckets of the nSrc×nDst grid the order
// covers — a foreign bucket would be counted towards the epoch's
// completion and a real one never trained. ok is false (with a nil error)
// when the directory holds no manifest — a fresh run.
func ReadManifest(dir string, nSrc, nDst int) (m *Manifest, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	m = new(Manifest)
	if err := json.Unmarshal(data, m); err != nil {
		return nil, false, fmt.Errorf("dist: corrupt checkpoint manifest in %s: %w", dir, err)
	}
	if m.Epoch < 0 {
		return nil, false, fmt.Errorf("dist: checkpoint manifest in %s has epoch %d", dir, m.Epoch)
	}
	if err := partition.CheckInGrid(m.Done, nSrc, nDst); err != nil {
		return nil, false, fmt.Errorf("dist: checkpoint manifest in %s, done buckets: %w", dir, err)
	}
	return m, true, nil
}

// WithRestoredEpoch resumes the server from a checkpoint cut: the current
// epoch is epoch with the done buckets already completed. From epoch 2 on
// every partition counts as established (epoch 1 trained them); a mid-first-
// epoch restore re-establishes only the partitions of done buckets.
func WithRestoredEpoch(epoch int, done []partition.Bucket) LockOption {
	return func(ls *LockServer) {
		if epoch <= 0 {
			return
		}
		ls.epoch = epoch
		trained := done
		if epoch >= 2 {
			trained = ls.order
		}
		for _, b := range trained {
			ls.established[b.P1], ls.established[b.P2] = true, true
		}
		for _, b := range done {
			ls.done[b] = 0
		}
	}
}

// Cuts is a deployment's checkpoint directory and the one code that writes
// a consistency cut into it (Write) and restores servers from its last cut
// (NewLockServer, NewParamServer; durable partition servers reload their
// own shards). dist.Cluster and pbg node's roles all go through it. A nil
// *Cuts, for no directory, restores nothing.
type Cuts struct {
	dir    string
	last   *Manifest // nil when the directory holds no cut
	counts []int     // counts[r]: relation r's parameter count (Scorer.RelParamCount)
}

// OpenCuts opens dir, the checkpoint directory of a deployment training a
// graph of schema with cfg; it returns nil when dir is "".
func OpenCuts(dir string, schema *graph.Schema, cfg train.Config) (*Cuts, error) {
	if dir == "" {
		return nil, nil
	}
	scorers, err := train.NewScorers(schema, cfg)
	if err != nil {
		return nil, err
	}
	c := &Cuts{dir: dir}
	for _, sc := range scorers {
		c.counts = append(c.counts, sc.RelParamCount())
	}
	nSrc, nDst := schema.BucketDims()
	if c.last, _, err = ReadManifest(dir, nSrc, nDst); err != nil {
		return nil, fmt.Errorf("%w; refusing to resume from %s", err, dir)
	}
	return c, nil
}

// NewLockServer builds the deployment's lock server over order, at the last
// cut's epoch with its done buckets committed.
func (c *Cuts) NewLockServer(order []partition.Bucket, opts ...LockOption) *LockServer {
	if c != nil && c.last != nil {
		opts = append(opts, WithRestoredEpoch(c.last.Epoch, c.last.Done))
	}
	return NewLockServer(order, opts...)
}

// NewParamServer builds a parameter server holding the last cut's relation
// blocks, read through storage.ReadRelationParams. Every parameter server
// holds every block; InitRel's first writer wins, so each trainer adopts
// relation r's from server r mod n instead of initialising it.
func (c *Cuts) NewParamServer() (*ParamServer, error) {
	ps := NewParamServer()
	if c == nil || c.last == nil {
		return ps, nil
	}
	params, err := storage.ReadRelationParams(c.dir, c.counts)
	if err != nil {
		return nil, err
	}
	for r, p := range params {
		ps.params[r] = p
	}
	return ps, nil
}

// Write is the one writer of a distributed checkpoint. In this order: ls's
// epoch progress is snapshotted, every partition server at partAddrs
// flushes its durable writes, every relation with parameters is pulled
// from parameter server r mod len(paramAddrs) into relations.pbg, and the
// manifest (epoch, done buckets) commits last. A bucket is done only after
// both its partitions were stored, and the snapshot precedes the flush, so
// the durable shards are at least as new as the cut: a resume retrains at
// most the buckets that were leased, never loses a committed one. A crash
// before the manifest pairs the older cut with newer relation parameters,
// no staler than the asynchronous parameter server (§4.2) lets a trainer
// be. Before the first epoch nothing is trained (and a parameter server may
// hold no block yet), so Write writes nothing.
func (c *Cuts) Write(ls *LockServer, partAddrs, paramAddrs []string) error {
	if c == nil {
		return errors.New("dist: the deployment has no checkpoint directory")
	}
	var es EpochStateReply
	if err := ls.EpochState(EpochStateArgs{}, &es); err != nil || es.Epoch == 0 {
		return err
	}
	for _, addr := range partAddrs {
		if err := Call(addr, "PartitionServer.Flush", FlushArgs{}, &Ack{}); err != nil {
			return fmt.Errorf("dist: cut: flush %s: %w", addr, err)
		}
	}
	params := make([][]float32, len(c.counts))
	for r, n := range c.counts {
		if n == 0 {
			continue
		}
		var rep SyncReply
		if len(paramAddrs) > 0 {
			if err := Call(paramAddrs[r%len(paramAddrs)], "ParamServer.Pull", PullArgs{Rel: r}, &rep); err != nil {
				return fmt.Errorf("dist: cut: relation %d: %w", r, err)
			}
		}
		if params[r] = rep.Params; len(params[r]) != n {
			return fmt.Errorf("dist: cut: relation %d has %d parameters, the parameter servers %d", r, n, len(params[r]))
		}
	}
	if err := storage.WriteRelationParams(c.dir, params); err != nil {
		return err
	}
	return WriteManifest(c.dir, &Manifest{Epoch: es.Epoch, Done: es.Done})
}
