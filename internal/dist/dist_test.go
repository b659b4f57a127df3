package dist

import (
	"math"
	"strings"
	"testing"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/train"
)

func TestSplitAddrs(t *testing.T) {
	if got := SplitAddrs(""); got != nil {
		t.Fatalf("SplitAddrs(\"\") = %v, want nil", got)
	}
	got := SplitAddrs("a:1,b:2")
	if len(got) != 2 || got[0] != "a:1" || got[1] != "b:2" {
		t.Fatalf("SplitAddrs = %v", got)
	}
}

// TestLockServerDisjointLeases drives three simulated trainers through two
// epochs and checks the §4.2 invariants: in-flight buckets are pairwise
// disjoint, every bucket after the first touches an established partition
// (first epoch only), and each epoch trains every bucket exactly once.
func TestLockServerDisjointLeases(t *testing.T) {
	const p = 4
	order, err := partition.Order(partition.OrderInsideOut, p, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLockServer(order)
	ls.maxWait = 0 // the simulated trainers share this goroutine: nobody to wait for

	// Asking for epoch 1 before StartEpoch: neither granted nor done.
	var rep AcquireReply
	if err := ls.AcquireBucket(AcquireArgs{Epoch: 1}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Granted || rep.Done {
		t.Fatalf("pre-StartEpoch acquire: %+v", rep)
	}

	established := map[int]bool{}
	for epoch := 1; epoch <= 2; epoch++ {
		var se StartEpochReply
		if err := ls.StartEpoch(StartEpochArgs{Epoch: epoch}, &se); err != nil {
			t.Fatal(err)
		}
		if se.Epoch != epoch {
			t.Fatalf("epoch = %d, want %d", se.Epoch, epoch)
		}
		held := map[int]partition.Bucket{} // rank -> leased bucket
		tokens := map[int]uint64{}         // rank -> lease fencing token
		trained := map[partition.Bucket]int{}
		grants := 0
		for done := false; !done; {
			progressed := false
			for rank := 0; rank < 3; rank++ {
				if _, busy := held[rank]; busy {
					continue
				}
				var rep AcquireReply
				if err := ls.AcquireBucket(AcquireArgs{Epoch: epoch, Rank: rank}, &rep); err != nil {
					t.Fatal(err)
				}
				if rep.Done {
					done = true
					break
				}
				if !rep.Granted {
					continue
				}
				b := rep.Bucket
				for other, ob := range held {
					if !b.Disjoint(ob) {
						t.Fatalf("epoch %d: bucket %v granted to rank %d overlaps %v held by rank %d", epoch, b, rank, ob, other)
					}
				}
				if epoch == 1 && grants > 0 && !established[b.P1] && !established[b.P2] {
					t.Fatalf("epoch 1: bucket %v granted with both partitions unestablished", b)
				}
				if rep.Token == 0 {
					t.Fatalf("grant of %v carries no fencing token", b)
				}
				grants++
				held[rank] = b
				tokens[rank] = rep.Token
				progressed = true
			}
			if done {
				break
			}
			// Release one lease so the loop always advances.
			released := false
			for rank, b := range held {
				established[b.P1] = true
				established[b.P2] = true
				var ack Ack
				if err := ls.ReleaseBucket(ReleaseArgs{Epoch: epoch, Rank: rank, Token: tokens[rank], Buckets: []partition.Bucket{b}}, &ack); err != nil {
					t.Fatal(err)
				}
				trained[b]++
				delete(held, rank)
				released = true
				break
			}
			if !progressed && !released {
				t.Fatalf("epoch %d: no grants and nothing to release", epoch)
			}
		}
		if len(trained) != p*p {
			t.Fatalf("epoch %d trained %d distinct buckets, want %d", epoch, len(trained), p*p)
		}
		for b, nTimes := range trained {
			if nTimes != 1 {
				t.Fatalf("epoch %d: bucket %v trained %d times", epoch, b, nTimes)
			}
		}
	}

	// The superseded epoch reports done; releases of unleased buckets fail.
	if err := ls.AcquireBucket(AcquireArgs{Epoch: 1}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Done {
		t.Fatal("stale epoch should report done")
	}
	var ack Ack
	if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 2, Buckets: []partition.Bucket{{P1: 0, P2: 0}}}, &ack); err == nil {
		t.Fatal("expected error releasing unleased bucket")
	}
}

func testSchema(t *testing.T) *graph.Schema {
	t.Helper()
	s, err := graph.NewSchema(
		[]graph.EntityType{{Name: "node", Count: 40, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "translation"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPartitionServerSwapRoundTrip exercises Get/Put over real
// loopback-TCP RPC, including the parity of lazy initialisation with a
// MemStore using the same seed.
func TestPartitionServerSwapRoundTrip(t *testing.T) {
	schema := testSchema(t)
	const dim, seed = 8, uint64(7)
	l, addr, err := serve(map[string]any{"PartitionServer": NewPartitionServer(schema, dim, seed)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	store, err := dialStore(schema, dim, 1, false, []string{addr}, storeOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Lazy initialisation matches a MemStore with the same seed.
	sh, err := store.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	mem := storage.NewMemStore(schema, dim, seed, 1)
	ref, err := mem.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Embs) != len(ref.Embs) {
		t.Fatalf("shard size %d != %d", len(sh.Embs), len(ref.Embs))
	}
	for i := range sh.Embs {
		if sh.Embs[i] != ref.Embs[i] {
			t.Fatalf("init mismatch at %d: %v != %v", i, sh.Embs[i], ref.Embs[i])
		}
	}
	if err := mem.Release(0, 1); err != nil {
		t.Fatal(err)
	}

	// Mutate, write back (Release), fetch again: the round trip preserves
	// embeddings and Adagrad state exactly.
	sh.Embs[3] = 42.5
	sh.Acc[0] = 7.25
	want := append([]float32(nil), sh.Embs...)
	if err := store.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	sh2, err := store.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if sh2.Embs[i] != want[i] {
			t.Fatalf("round trip mismatch at %d: %v != %v", i, sh2.Embs[i], want[i])
		}
	}
	if sh2.Acc[0] != 7.25 {
		t.Fatalf("Adagrad state lost: %v", sh2.Acc[0])
	}
	if err := store.Release(0, 1); err != nil {
		t.Fatal(err)
	}

	client := store.clients[0]
	// Dimension and range validation.
	var bad shardIn
	if err := client.Call("PartitionServer.Get", GetArgs{TypeIndex: 0, Part: 9, Dim: dim}, &bad); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if err := client.Call("PartitionServer.Get", GetArgs{TypeIndex: 0, Part: 0, Dim: dim + 1}, &bad); err == nil {
		t.Fatal("expected dim mismatch error")
	}
}

// TestParamServerAsyncConvergence checks the delta-push protocol: with three
// clients pushing interleaved updates, the global block converges to the
// initial value plus the sum of every client's updates, and a final pull
// brings all clients to the same state.
func TestParamServerAsyncConvergence(t *testing.T) {
	ps := NewParamServer()
	const rel, dim, clients, rounds = 0, 4, 3, 50
	init := make([]float32, dim)
	for i := range init {
		init[i] = float32(i)
	}
	var ir InitRelReply
	for c := 0; c < clients; c++ {
		if err := ps.InitRel(InitRelArgs{Rel: rel, Params: init}, &ir); err != nil {
			t.Fatal(err)
		}
		for i := range init {
			if ir.Params[i] != init[i] {
				t.Fatalf("client %d got non-canonical init %v", c, ir.Params)
			}
		}
	}

	local := make([][]float32, clients)
	last := make([][]float32, clients)
	for c := range local {
		local[c] = append([]float32(nil), init...)
		last[c] = append([]float32(nil), init...)
	}
	sync := func(c int) {
		delta := make([]float32, dim)
		for i := range delta {
			delta[i] = local[c][i] - last[c][i]
		}
		var rep SyncReply
		if err := ps.Sync(SyncArgs{Rel: rel, Delta: delta}, &rep); err != nil {
			t.Fatal(err)
		}
		copy(local[c], rep.Params)
		copy(last[c], rep.Params)
	}
	// Interleave: each round, every client applies one local +1 update to a
	// client-specific coordinate, syncing at staggered times.
	for round := 0; round < rounds; round++ {
		for c := 0; c < clients; c++ {
			local[c][c%dim]++
			if (round+c)%3 == 0 {
				sync(c)
			}
		}
	}
	for c := 0; c < clients; c++ {
		sync(c)
	}
	// Expected totals: coordinate i gained `rounds` for every client with
	// c%dim == i. Small integer sums are exact in float32.
	want := append([]float32(nil), init...)
	for c := 0; c < clients; c++ {
		want[c%dim] += rounds
	}
	var pull SyncReply
	if err := ps.Pull(PullArgs{Rel: rel}, &pull); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if pull.Params[i] != want[i] {
			t.Fatalf("server param %d = %v, want %v", i, pull.Params[i], want[i])
		}
	}
	for c := 0; c < clients; c++ {
		var rep SyncReply
		if err := ps.Sync(SyncArgs{Rel: rel, Delta: make([]float32, dim)}, &rep); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if rep.Params[i] != want[i] {
				t.Fatalf("client %d param %d = %v, want %v", c, i, rep.Params[i], want[i])
			}
		}
	}
	if err := ps.Sync(SyncArgs{Rel: 9, Delta: make([]float32, dim)}, &pull); err == nil {
		t.Fatal("expected error for uninitialised relation")
	}
}

// TestClusterLoopbackIntegration runs the full Figure 2 assembly — lock
// server, sharded partition servers, parameter server, two trainer nodes —
// over loopback TCP for two epochs and checks the work accounting.
func TestClusterLoopbackIntegration(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("HOGWILD workers race with the async param sync by design (§4.2); the RPC/store machinery is covered race-clean by the other dist tests")
	}
	const parts = 4
	g, err := datagen.Knowledge(datagen.KGConfig{
		Entities: 800, Relations: 4, Edges: 6000, NumPartitions: parts, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	order, err := partition.Order(partition.OrderInsideOut, parts, parts, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewCluster(g, order, ClusterConfig{
		Machines:     2,
		SyncInterval: 5 * time.Millisecond,
		Seed:         3,
		// One worker per node: `go test -race` then checks the distribution
		// infrastructure without flagging the trainer's intentional HOGWILD
		// races (covered by the train package's own tests).
		Train: train.Config{Dim: 16, Workers: 1, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()

	totalBuckets := 0
	perRank := map[int]int{}
	peakResident := map[int]int64{}
	for epoch := 0; epoch < 2; epoch++ {
		st, err := cl.RunEpoch()
		if err != nil {
			t.Fatal(err)
		}
		if st.Buckets != parts*parts {
			t.Fatalf("epoch %d trained %d buckets, want %d", epoch, st.Buckets, parts*parts)
		}
		if st.Edges != g.Edges.Len() {
			t.Fatalf("epoch %d trained %d edges, want %d", epoch, st.Edges, g.Edges.Len())
		}
		if math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0) || st.Loss <= 0 {
			t.Fatalf("epoch %d loss = %v", epoch, st.Loss)
		}
		if len(st.PerNode) != 2 {
			t.Fatalf("epoch %d has %d per-node entries", epoch, len(st.PerNode))
		}
		for _, ns := range st.PerNode {
			totalBuckets += ns.Buckets
			perRank[ns.Rank] += ns.Buckets
			peakResident[ns.Rank] = max(peakResident[ns.Rank], ns.PeakResident)
		}
	}
	if totalBuckets != 2*parts*parts {
		t.Fatalf("total buckets %d, want %d", totalBuckets, 2*parts*parts)
	}
	// Over two epochs both machines must have contributed (the scheduler
	// would need pathological timing to starve a node for 32 leases).
	for rank := 0; rank < 2; rank++ {
		if perRank[rank] == 0 {
			t.Fatalf("rank %d trained no buckets across two epochs (perRank %v)", rank, perRank)
		}
		// Checked per run, not per epoch: one rank may win all 16 small
		// buckets of an epoch, and the other then held no shard in it.
		if peakResident[rank] <= 0 {
			t.Fatalf("rank %d reports no resident memory", rank)
		}
	}

	// EvalStore exposes the trained embeddings read-only.
	store, err := cl.EvalStore()
	if err != nil {
		t.Fatal(err)
	}
	sh, err := store.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := g.Schema.Entities[0].PartitionCount(1)
	if sh.Count != wantRows || len(sh.Embs) != wantRows*16 {
		t.Fatalf("eval shard %d rows (embs %d), want %d", sh.Count, len(sh.Embs), wantRows)
	}
	if store.ResidentBytes() <= 0 {
		t.Fatal("eval store reports no resident bytes")
	}
	if err := store.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterRejectsOrderNotCoveringGrid: an order that is not exactly the
// graph's bucket grid is refused by NewCluster. A 2×2 order over a 4×4
// graph used to train 4 of its 16 buckets and report the epoch complete; a
// 4×4 order over a 2×2 graph used to fail only after a grant, when a
// trainer asked a partition server for partition 2.
func TestClusterRejectsOrderNotCoveringGrid(t *testing.T) {
	for _, c := range []struct{ graphParts, orderParts int }{{4, 2}, {2, 4}} {
		g, err := datagen.Social(datagen.SocialConfig{
			Nodes: 200, AvgOutDegree: 4, NumPartitions: c.graphParts, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		order, err := partition.Order(partition.OrderInsideOut, c.orderParts, c.orderParts, 0)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := NewCluster(g, order, ClusterConfig{Machines: 1, Train: train.Config{Dim: 8, Workers: 1}})
		if err == nil {
			cl.Shutdown()
			t.Fatalf("a %d×%d order over a %d×%d graph was accepted", c.orderParts, c.orderParts, c.graphParts, c.graphParts)
		}
		if !strings.Contains(err.Error(), "bucket order") {
			t.Fatalf("%d×%d order over %d×%d graph: %v", c.orderParts, c.orderParts, c.graphParts, c.graphParts, err)
		}
	}
}
