package train

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"pbg/internal/partition"
	"pbg/internal/storage/storetest"
)

// TestResidentDrivenBucketByBucket drives the transition routine the way a
// distributed node does — one Advance and one Train per bucket as buckets
// are handed to it, a callback between the two halves of each transition —
// and requires the shard files to come out byte for byte as TrainEpoch
// writes them over the same order: there is one transition routine, and the
// executors are loops around it.
func TestResidentDrivenBucketByBucket(t *testing.T) {
	g := smallSocial(t, 4)
	cfg := Config{Dim: 12, Seed: 3, Workers: 1}
	train := func(drive func(tr *Trainer)) string {
		dir := t.TempDir()
		store := storetest.NewDisk(t, dir, g.Schema, cfg.Dim, 7, 1)
		tr, err := New(g, store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		drive(tr)
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	byEpoch := train(func(tr *Trainer) {
		if _, err := tr.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	})
	carried := 0
	byBucket := train(func(tr *Trainer) {
		r := tr.NewResident()
		var prev *partition.Bucket
		for _, b := range tr.Buckets() {
			if tr.BucketEdgeCount(b) == 0 {
				continue
			}
			b := b
			err := r.Advance(b, func() error {
				// Between the halves the set holds exactly what it carries:
				// the shards the last bucket and this one share.
				if r.Len() > 0 {
					carried++
				}
				if prev != nil && r.Holds(*prev) != !prev.Disjoint(b) {
					t.Errorf("moving %v → %v: Holds(%v) = %v", *prev, b, *prev, r.Holds(*prev))
				}
				for _, p := range r.Parts() {
					if p != b.P1 && p != b.P2 {
						t.Errorf("moving to %v: still holding partition %d", b, p)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, edges, err := r.Train(b); err != nil || edges != tr.BucketEdgeCount(b) {
				t.Fatalf("Train(%v) = %d edges, %v; want %d", b, edges, err, tr.BucketEdgeCount(b))
			}
			prev = &b
		}
		if err := r.ReleaseAll(); err != nil {
			t.Fatal(err)
		}
		if r.Len() != 0 || len(r.Parts()) != 0 {
			t.Fatalf("ReleaseAll left %d shards held", r.Len())
		}
	})
	if carried == 0 {
		t.Fatal("no transition carried a shard: inside-out consecutive buckets share a partition")
	}
	files, err := os.ReadDir(byEpoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("TrainEpoch wrote %d shard files, want 4", len(files))
	}
	for _, f := range files {
		x, err := os.ReadFile(filepath.Join(byEpoch, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(byBucket, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between TrainEpoch and the bucket-by-bucket drive", f.Name())
		}
	}
}
