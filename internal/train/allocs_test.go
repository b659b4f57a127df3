package train

import (
	"testing"

	"pbg/internal/partition"
)

// steadyBucketAllocs is what a warm bucket may allocate at Workers: 2. The
// permutation, the chunk queue, each worker's generator, loss and chunk ids
// belong to the trainer, and worker 0 runs on the calling goroutine; what is
// left is launching the second worker. The bucket allocated 12 times when
// every worker grouped its own slice of the bucket by relation.
const steadyBucketAllocs = 2

// TestRunBucketSteadyStateAllocs pins steadyBucketAllocs on a one-partition
// graph, after one bucket has warmed the scratch.
func TestRunBucketSteadyStateAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race detector allocates on its own; the count is pinned without it")
	}
	g := smallSocial(t, 1)
	tr := newTrainer(t, g, Config{Workers: 2, Seed: 5})
	b := partition.Bucket{P1: 0, P2: 0}
	r := tr.NewResident()
	if err := r.Advance(b, nil); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.ReleaseAll(); err != nil {
			t.Error(err)
		}
	})
	train := func() {
		if _, _, err := r.Train(b); err != nil {
			t.Fatal(err)
		}
	}
	train()
	got := testing.AllocsPerRun(20, train)
	t.Logf("a warm bucket allocates %v times", got)
	if got > steadyBucketAllocs {
		t.Fatalf("a warm bucket allocates %v times, want at most %d", got, steadyBucketAllocs)
	}
}
