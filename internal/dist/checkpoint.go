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

// Manifest is the consistency cut a Cluster checkpoint records (see
// Cluster.Checkpoint): the epoch in progress and the buckets already
// committed in it. With the durable shard files and relations.pbg beside
// it, it lets a crashed run resume from the cut instead of epoch 0.
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
