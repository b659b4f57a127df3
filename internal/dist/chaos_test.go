package dist

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// chaosGraph builds the social graph the chaos tests share. Its single
// relation uses the identity operator, so there are no relation parameters
// and the async parameter sync is a no-op — with Workers:1 the whole cluster
// is race-clean and these tests run under `go test -race` (the CI chaos
// smoke).
func chaosGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: 600, AvgOutDegree: 10, NumPartitions: 4, Seed: 71,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func insideOutOrder(t *testing.T, parts int) []partition.Bucket {
	t.Helper()
	order, err := partition.Order(partition.OrderInsideOut, parts, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// evalMRR ranks test edges over emb with the shared protocol, so the
// distributed and single-machine numbers are comparable.
func evalMRR(t *testing.T, g, test *graph.Graph, emb eval.EmbeddingSource, scorers eval.ScorerSource, dim int) float64 {
	t.Helper()
	rk := eval.NewRanker(g.Schema, emb, scorers, dim, graph.ComputeDegrees(g))
	m, err := rk.Evaluate(test.Edges, eval.Config{
		Mode: eval.CandidatesUniform, K: 200, MaxEdges: 300, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m.MRR
}

// TestClusterTrainerDeathMidEpoch is the ISSUE's acceptance bar: a trainer is
// SIGKILLed (chaos-killed: every RPC fails terminally, abandon included)
// partway through an epoch while holding a bucket lease. The lease must
// expire, the survivor must re-lease and retrain the orphaned bucket, every
// epoch must still cover the full grid, and the embeddings must reach MRR
// parity with a single-machine run of the same budget.
func TestClusterTrainerDeathMidEpoch(t *testing.T) {
	const (
		parts  = 4
		dim    = 16
		epochs = 4
		ttl    = 150 * time.Millisecond
	)
	g := chaosGraph(t)
	gtr, _, test := g.Split(0, 0.1, 3)

	// Rank 1's first three partition-server Gets succeed — enough to train
	// its first bucket and start checking out its second — then the process
	// "dies" with a lease held.
	chaos := NewChaos(1)
	chaos.KillAfter("rank1", "PartitionServer.Get", 3)

	hub := obs.NewQuietHub()
	cl, err := NewCluster(gtr, insideOutOrder(t, parts), ClusterConfig{
		Machines:     2,
		SyncInterval: 5 * time.Millisecond,
		Seed:         6,
		Train:        train.Config{Dim: dim, Workers: 1, Seed: 5, Obs: hub},
		LeaseTTL:     ttl,
		Retry:        RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
		Chaos:        chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	for epoch := 1; epoch <= epochs; epoch++ {
		st, err := cl.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if len(st.Failed) != 1 || st.Failed[0] != 1 {
			t.Fatalf("epoch %d failed ranks = %v, want [1]", epoch, st.Failed)
		}
		// The grid is still covered in full: buckets rank 1 committed before
		// dying plus everything the survivor trained (including the bucket
		// whose lease expired).
		if st.Buckets != parts*parts {
			t.Fatalf("epoch %d trained %d buckets, want %d", epoch, st.Buckets, parts*parts)
		}
	}
	t.Log(chaos.Stats())

	// The lease expiry is observable on /metrics.
	var buf bytes.Buffer
	if err := hub.Reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	// (leases_lost stays 0 here: a killed trainer never observes the loss —
	// only the lock server's expiry counter records it.)
	if !promCounterPositive(buf.String(), "pbg_dist_lease_expiries_total") {
		t.Fatalf("metrics report no lease expiries:\n%s", buf.String())
	}

	// MRR parity with a single-machine run: same embedding seed, same
	// training budget (rank 1's lost work is retrained by rank 0).
	store, err := cl.EvalStore()
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	view := train.NewStoreView(store, g.Schema)
	defer view.Close()
	distMRR := evalMRR(t, gtr, test, view, cl.Nodes[0].Trainer(), dim)

	mem := storage.NewMemStore(gtr.Schema, dim, 6, 1)
	tr, err := train.New(gtr, mem, train.Config{Dim: dim, Epochs: epochs, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	sview := train.NewStoreView(mem, gtr.Schema)
	defer sview.Close()
	soloMRR := evalMRR(t, gtr, test, sview, tr, dim)

	t.Logf("MRR: distributed-with-death %.4f, single-machine %.4f", distMRR, soloMRR)
	if distMRR < 0.08 {
		t.Fatalf("distributed MRR %.4f below absolute floor 0.08", distMRR)
	}
	if distMRR < 0.7*soloMRR {
		t.Fatalf("distributed MRR %.4f not within 70%% of single-machine %.4f", distMRR, soloMRR)
	}
}

// promCounterPositive reports whether the rendered /metrics text has a sample
// of the named counter (any label set) with a positive value.
func promCounterPositive(text, name string) bool {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" && fields[1] != "0.000000" {
			return true
		}
	}
	return false
}

// TestClusterRPCChaosEpochExact runs two epochs under a probabilistic fault
// schedule — dropped sends on shard fetches and lease acquires, dropped
// replies on shard writes and releases — and requires *exact* accounting:
// every bucket trained once, every edge visited once per epoch, no node
// failures. Retries plus server-side idempotency must make the chaos
// invisible to the bookkeeping.
func TestClusterRPCChaosEpochExact(t *testing.T) {
	const parts = 4
	g := chaosGraph(t)

	// DropSend is safe on any method (the call never executes); DropReply is
	// restricted to idempotent methods (Put replaces, ReleaseBucket commits
	// through the released-token map, AcquireBucket repeats the grant its
	// caller's token shows it never saw).
	chaos := NewChaos(42,
		ChaosRule{Method: "PartitionServer.Get", DropSend: 0.05},
		ChaosRule{Method: "LockServer.AcquireBucket", DropSend: 0.05, DropReply: 0.1},
		ChaosRule{Method: "PartitionServer.Put", DropReply: 0.05},
		ChaosRule{Method: "LockServer.ReleaseBucket", DropReply: 0.1},
	)
	cl, err := NewCluster(g, insideOutOrder(t, parts), ClusterConfig{
		Machines:     2,
		SyncInterval: 5 * time.Millisecond,
		Seed:         3,
		Train:        train.Config{Dim: 16, Workers: 1, Seed: 9},
		LeaseTTL:     500 * time.Millisecond,
		Retry:        RetryPolicy{MaxAttempts: 8, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
		Chaos:        chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	for epoch := 1; epoch <= 2; epoch++ {
		st, err := cl.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if len(st.Failed) != 0 {
			t.Fatalf("epoch %d failed ranks = %v, want none", epoch, st.Failed)
		}
		if st.Buckets != parts*parts {
			t.Fatalf("epoch %d trained %d buckets, want %d", epoch, st.Buckets, parts*parts)
		}
		if st.Edges != g.Edges.Len() {
			t.Fatalf("epoch %d trained %d edges, want %d", epoch, st.Edges, g.Edges.Len())
		}
	}
	t.Log(chaos.Stats())
}

// TestClusterCheckpointResume shuts a durable cluster down after two epochs
// and boots a fresh one over the same directory: the new cluster must resume
// at epoch 3 with bit-exact embeddings, then train a full epoch.
func TestClusterCheckpointResume(t *testing.T) {
	const (
		parts = 4
		dim   = 16
	)
	g := chaosGraph(t)
	order := insideOutOrder(t, parts)
	dir := t.TempDir()
	cfg := ClusterConfig{
		Machines:      1,
		SyncInterval:  5 * time.Millisecond,
		Seed:          3,
		Train:         train.Config{Dim: dim, Workers: 1, Seed: 9},
		CheckpointDir: dir,
	}

	cl, err := NewCluster(g, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 1; epoch <= 2; epoch++ {
		if got := cl.NextEpoch(); got != epoch {
			t.Fatalf("NextEpoch = %d, want %d", got, epoch)
		}
		if _, err := cl.RunEpoch(); err != nil {
			t.Fatal(err)
		}
		if err := cl.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	before := evalShard(t, cl, 0, 1)
	cl.Shutdown()

	// A fresh cluster over the same directory resumes past the two finished
	// epochs with the exact embeddings the old one shut down with.
	cl2, err := NewCluster(g, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Shutdown()
	if got := cl2.NextEpoch(); got != 3 {
		t.Fatalf("resumed NextEpoch = %d, want 3", got)
	}
	after := evalShard(t, cl2, 0, 1)
	if len(before) == 0 || len(before) != len(after) {
		t.Fatalf("shard sizes differ: %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("resumed embedding diverges at %d: %v vs %v", i, before[i], after[i])
		}
	}
	st, err := cl2.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if st.Buckets != parts*parts {
		t.Fatalf("post-resume epoch trained %d buckets, want %d", st.Buckets, parts*parts)
	}
	if got := cl2.NextEpoch(); got != 4 {
		t.Fatalf("NextEpoch after resume epoch = %d, want 4", got)
	}
}

// TestClusterMidEpochResume boots a cluster over a manifest cut mid-epoch
// (the crash-during-epoch case): the interrupted epoch continues — no fresh
// StartEpoch — and only the not-yet-done buckets are trained.
func TestClusterMidEpochResume(t *testing.T) {
	const parts = 4
	g := chaosGraph(t)
	order := insideOutOrder(t, parts)
	dir := t.TempDir()

	const done = 6
	if err := WriteManifest(dir, &Manifest{Epoch: 1, Done: order[:done]}); err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, order, ClusterConfig{
		Machines:      1,
		SyncInterval:  5 * time.Millisecond,
		Seed:          3,
		Train:         train.Config{Dim: 16, Workers: 1, Seed: 9},
		CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	if got := cl.NextEpoch(); got != 1 {
		t.Fatalf("NextEpoch = %d, want the interrupted epoch 1", got)
	}
	st, err := cl.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if want := parts*parts - done; st.Buckets != want {
		t.Fatalf("resumed epoch trained %d buckets, want the remaining %d", st.Buckets, want)
	}
	if got := cl.NextEpoch(); got != 2 {
		t.Fatalf("NextEpoch after finishing the interrupted epoch = %d, want 2", got)
	}
}

// evalShard snapshots one shard's embeddings through the cluster's read-only
// evaluation store.
func evalShard(t *testing.T, cl *Cluster, typeIdx, part int) []float32 {
	t.Helper()
	store, err := cl.EvalStore()
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sh, err := store.Acquire(typeIdx, part)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]float32(nil), sh.Embs...)
	if err := store.Release(typeIdx, part); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestClusterCarriedSchedule pins what keeping the shared partition saves.
// One trainer's schedule is deterministic — the lock server's affinity walk
// over the inside-out order — so its partition traffic is exact: 10 Gets
// and 10 Puts an epoch on a 4×4 grid, where swapping both partitions of
// every bucket costs 28 of each. Two trainers interleave differently run to
// run, but every fetched partition is stored exactly once, and never more
// than one per bucket. The 2×2 grid, where only the two diagonal buckets
// are disjoint, is the deadlock exercise: two trainers that each want what
// the other holds must both finish, because neither waits while holding.
func TestClusterCarriedSchedule(t *testing.T) {
	g := chaosGraph(t)
	run := func(t *testing.T, g *graph.Graph, parts, machines int, check func(epoch int, st EpochStats)) {
		t.Helper()
		cl, err := NewCluster(g, insideOutOrder(t, parts), ClusterConfig{
			Machines: machines, Seed: 3, Train: train.Config{Dim: 8, Workers: 1, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Shutdown()
		for epoch := 1; epoch <= 3; epoch++ {
			st, err := cl.RunEpoch()
			if err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			if st.Buckets != parts*parts || st.Edges != g.Edges.Len() {
				t.Fatalf("epoch %d trained %d buckets, %d edges; want %d, %d", epoch, st.Buckets, st.Edges, parts*parts, g.Edges.Len())
			}
			check(epoch, st)
		}
	}
	t.Run("P=4 M=1", func(t *testing.T) {
		run(t, g, 4, 1, func(epoch int, st EpochStats) {
			if st.PartitionIO != 10 || st.Puts != 10 {
				t.Errorf("epoch %d: %d Gets, %d Puts; want 10 and 10", epoch, st.PartitionIO, st.Puts)
			}
		})
	})
	t.Run("P=4 M=2", func(t *testing.T) {
		run(t, g, 4, 2, func(epoch int, st EpochStats) {
			if st.PartitionIO != st.Puts || st.PartitionIO > 16 {
				t.Errorf("epoch %d: %d Gets, %d Puts; want them equal and at most 16 (28 without carrying)", epoch, st.PartitionIO, st.Puts)
			}
		})
	})
	t.Run("P=2 M=2", func(t *testing.T) {
		g2, err := datagen.Social(datagen.SocialConfig{Nodes: 300, AvgOutDegree: 10, NumPartitions: 2, Seed: 71})
		if err != nil {
			t.Fatal(err)
		}
		run(t, g2, 2, 2, func(epoch int, st EpochStats) {
			if st.PartitionIO != st.Puts {
				t.Errorf("epoch %d: %d Gets, %d Puts; want them equal", epoch, st.PartitionIO, st.Puts)
			}
		})
	})
}

// TestClusterTrainerDeathWhileCarrying kills rank 1 in the middle of a
// chain: it has trained two buckets over a partition it still carries, so
// neither is committed and their training exists only in its memory. Both
// leases must expire together, the survivor must retrain both, every epoch
// must still commit exactly the grid, and the embeddings must reach MRR
// parity with a single-machine run.
func TestClusterTrainerDeathWhileCarrying(t *testing.T) {
	const (
		parts  = 4
		dim    = 16
		epochs = 4
		ttl    = 150 * time.Millisecond
	)
	g := chaosGraph(t)
	gtr, _, test := g.Split(0, 0.1, 3)

	// Rank 1 is granted two buckets and dies asking for a third. The second
	// grant was made while it held the first's partitions, so the two share
	// one (the scheduler prefers a bucket over what the rank holds).
	chaos := NewChaos(1)
	chaos.KillAfter("rank1", "LockServer.AcquireBucket", 2)

	hub := obs.NewQuietHub()
	cl, err := NewCluster(gtr, insideOutOrder(t, parts), ClusterConfig{
		Machines:     2,
		SyncInterval: 5 * time.Millisecond,
		Seed:         6,
		Train:        train.Config{Dim: dim, Workers: 1, Seed: 5, Obs: hub},
		LeaseTTL:     ttl,
		Retry:        RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 10 * time.Millisecond},
		Chaos:        chaos,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	for epoch := 1; epoch <= epochs; epoch++ {
		st, err := cl.RunEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		if len(st.Failed) != 1 || st.Failed[0] != 1 {
			t.Fatalf("epoch %d failed ranks = %v, want [1]", epoch, st.Failed)
		}
		if st.Buckets != parts*parts {
			t.Fatalf("epoch %d committed %d buckets, want %d", epoch, st.Buckets, parts*parts)
		}
		if epoch == 1 {
			// Two leases expired at once: rank 1 died carrying.
			if got := hub.Reg.Snapshot().Counters["pbg_dist_lease_expiries_total"]; got != 2 {
				t.Fatalf("lease expiries after epoch 1 = %d, want rank 1's 2 uncommitted buckets", got)
			}
			if st.PerNode[0].Buckets != parts*parts {
				t.Fatalf("the survivor committed %d buckets in epoch 1, want all %d: nothing rank 1 trained was stored", st.PerNode[0].Buckets, parts*parts)
			}
		}
	}
	t.Log(chaos.Stats())

	store, err := cl.EvalStore()
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	view := train.NewStoreView(store, g.Schema)
	defer view.Close()
	distMRR := evalMRR(t, gtr, test, view, cl.Nodes[0].Trainer(), dim)

	mem := storage.NewMemStore(gtr.Schema, dim, 6, 1)
	tr, err := train.New(gtr, mem, train.Config{Dim: dim, Epochs: epochs, Workers: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(nil); err != nil {
		t.Fatal(err)
	}
	sview := train.NewStoreView(mem, gtr.Schema)
	defer sview.Close()
	soloMRR := evalMRR(t, gtr, test, sview, tr, dim)

	t.Logf("MRR: distributed-with-death %.4f, single-machine %.4f", distMRR, soloMRR)
	if distMRR < 0.08 {
		t.Fatalf("distributed MRR %.4f below absolute floor 0.08", distMRR)
	}
	if distMRR < 0.7*soloMRR {
		t.Fatalf("distributed MRR %.4f not within 70%% of single-machine %.4f", distMRR, soloMRR)
	}
}

// TestClusterMidChainCheckpointResume takes a checkpoint while the trainer
// is in the middle of a chain: five buckets trained, two of them committed,
// the rest waiting on a partition still in the trainer's memory. The
// manifest must list only the committed buckets — a trained bucket whose
// partitions are not both stored is not done — and the resumed cluster must
// retrain the other fourteen.
func TestClusterMidChainCheckpointResume(t *testing.T) {
	const parts = 4
	g := chaosGraph(t)
	order := insideOutOrder(t, parts)
	dir := t.TempDir()
	cfg := ClusterConfig{
		Machines:      1,
		SyncInterval:  5 * time.Millisecond,
		Seed:          3,
		Train:         train.Config{Dim: 16, Workers: 1, Seed: 9},
		CheckpointDir: dir,
		Retry:         RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond},
	}
	// The trainer dies asking for its sixth bucket, having trained (0,0),
	// (0,1), (1,1), (1,0) and (0,2). The move to (1,1) stored partition 0,
	// which completed (0,0); the move to (0,2) stored partition 1, which
	// completed (1,1). (0,1) and (1,0) each wait on the partition 0 fetched
	// again for (1,0) and still carried.
	crashing := cfg
	crashing.Chaos = NewChaos(1)
	crashing.Chaos.KillAfter("rank0", "LockServer.AcquireBucket", 5)
	cl, err := NewCluster(g, order, crashing)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunEpoch(); err == nil {
		t.Fatal("the epoch survived its only trainer's death")
	}
	var es EpochStateReply
	if err := cl.lockSrv.EpochState(EpochStateArgs{}, &es); err != nil {
		t.Fatal(err)
	}
	uncommitted := 0
	for _, l := range es.Leases {
		if l.Uncommitted {
			uncommitted++
		}
	}
	// The newest lease is not marked trained: the server learns that from
	// the rank's next acquire, which never arrived.
	if len(es.Leases) != 3 || uncommitted != 2 {
		t.Fatalf("lease table at the crash: %+v; want 3 leases, 2 of them trained and not stored", es.Leases)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cl.Shutdown()

	m, ok, err := ReadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if m.Epoch != 1 || len(m.Done) != 2 || m.Done[0] != (partition.Bucket{}) || m.Done[1] != (partition.Bucket{P1: 1, P2: 1}) {
		t.Fatalf("manifest cut = epoch %d done %v; want epoch 1 with only (0,0) and (1,1) done", m.Epoch, m.Done)
	}

	cl2, err := NewCluster(g, order, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Shutdown()
	if got := cl2.NextEpoch(); got != 1 {
		t.Fatalf("NextEpoch = %d, want the interrupted epoch 1", got)
	}
	st, err := cl2.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if want := parts*parts - 2; st.Buckets != want {
		t.Fatalf("resumed epoch trained %d buckets, want %d: every trained-but-unstored bucket again", st.Buckets, want)
	}
}

// TestStartEpochLostReplyIsIdempotent: StartEpoch names its epoch, so the
// retry after a lost reply — and a duplicate delivery — find the epoch
// already started and change nothing. Unnamed, the retry started a second
// epoch, the nodes asked for the first, were told it was done, and every
// epoch from then on trained nothing and reported success.
func TestStartEpochLostReplyIsIdempotent(t *testing.T) {
	for name, rule := range map[string]ChaosRule{
		"lost reply": {Tag: "cluster", Method: "LockServer.StartEpoch", DropReply: 1, First: 1},
		"duplicate":  {Tag: "cluster", Method: "LockServer.StartEpoch", Duplicate: 1},
	} {
		t.Run(name, func(t *testing.T) {
			g := chaosGraph(t)
			cl, err := NewCluster(g, insideOutOrder(t, 4), ClusterConfig{
				Machines: 2, Seed: 3,
				Train: train.Config{Dim: 8, Workers: 1, Seed: 9},
				Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond},
				Chaos: NewChaos(5, rule),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Shutdown()
			for epoch := 1; epoch <= 3; epoch++ {
				st, err := cl.RunEpoch()
				if err != nil {
					t.Fatalf("epoch %d: %v", epoch, err)
				}
				if st.Buckets != 16 || st.Edges != g.Edges.Len() {
					t.Fatalf("epoch %d trained %d buckets, %d edges; want 16, %d", epoch, st.Buckets, st.Edges, g.Edges.Len())
				}
			}
			var es EpochStateReply
			if err := cl.lockSrv.EpochState(EpochStateArgs{}, &es); err != nil {
				t.Fatal(err)
			}
			if es.Epoch != 3 {
				t.Fatalf("lock server at epoch %d after three RunEpochs", es.Epoch)
			}
		})
	}
	// The other half of the fix: an epoch that commits less than the lock
	// server had pending, with every rank alive, is an error. A node that is
	// behind the lock server's epoch is told "done" at once.
	t.Run("short epoch is an error", func(t *testing.T) {
		cl, err := NewCluster(chaosGraph(t), insideOutOrder(t, 4), ClusterConfig{
			Machines: 1, Seed: 3, Train: train.Config{Dim: 8, Workers: 1, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Shutdown()
		cl.Nodes[0].epoch-- // as if it had missed a StartEpoch
		if st, err := cl.RunEpoch(); err == nil {
			t.Fatalf("RunEpoch reported success for an epoch that trained %d of 16 buckets", st.Buckets)
		}
	})
}
