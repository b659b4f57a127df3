package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"pbg/internal/partition"
	"pbg/internal/storage"
)

// manifestName is the checkpoint manifest's filename inside the checkpoint
// directory (the same directory the durable partition servers write shards
// to, so one directory is a complete restartable model).
const manifestName = "MANIFEST.json"

// Manifest is the consistency cut a Cluster checkpoint records: the epoch in
// progress, the buckets already committed in it, and the global relation
// parameters. Together with the durable shard files beside it, it lets a
// crashed run resume from the cut instead of epoch 0. The done-bucket set is
// snapshotted before the shards are flushed, so the durable shards are
// always at least as new as the cut — resuming retrains at most the buckets
// that were in flight, never loses a committed one.
type Manifest struct {
	// Epoch is the lock-server epoch at the cut (0 = before the first
	// StartEpoch).
	Epoch int
	// Done lists the buckets committed in Epoch at the cut.
	Done []partition.Bucket
	// RelParams carries the parameter server's relation blocks (omitted for
	// parameter-free operators).
	RelParams []RelBlock
}

// RelBlock is one relation's global parameter block.
type RelBlock struct {
	Rel    int
	Params []float32
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

// Validate is the gate a manifest passes before a resume trusts it: the
// epoch is not negative, Done names each bucket at most once and only
// buckets of the nSrc×nDst grid the order covers — a foreign bucket would
// be counted towards the epoch's completion and a real one never trained —
// and every relation block belongs to a relation of the model and has its
// length. relParams[r] is relation r's parameter count; a nil relParams
// skips the relation checks, for a caller that restores epoch progress
// only (a standalone lock server).
func (m *Manifest) Validate(nSrc, nDst int, relParams []int) error {
	if m.Epoch < 0 {
		return fmt.Errorf("dist: checkpoint manifest has epoch %d", m.Epoch)
	}
	if err := partition.CheckInGrid(m.Done, nSrc, nDst); err != nil {
		return fmt.Errorf("dist: checkpoint manifest's done buckets: %w", err)
	}
	if relParams == nil {
		return nil
	}
	seen := make(map[int]bool, len(m.RelParams))
	for _, blk := range m.RelParams {
		switch {
		case blk.Rel < 0 || blk.Rel >= len(relParams):
			return fmt.Errorf("dist: checkpoint manifest has parameters for relation %d, the model has %d relations", blk.Rel, len(relParams))
		case seen[blk.Rel]:
			return fmt.Errorf("dist: checkpoint manifest has two parameter blocks for relation %d", blk.Rel)
		case len(blk.Params) != relParams[blk.Rel]:
			return fmt.Errorf("dist: checkpoint manifest has %d parameters for relation %d, the model has %d", len(blk.Params), blk.Rel, relParams[blk.Rel])
		}
		seen[blk.Rel] = true
	}
	return nil
}

// ReadManifest loads dir's checkpoint manifest. ok is false (with a nil
// error) when the directory holds no manifest — a fresh run. The caller must
// Validate it against its bucket order and model before resuming from it.
func ReadManifest(dir string) (m *Manifest, ok bool, err error) {
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
	return m, true, nil
}
