package dist

// Tests of the lease protocol in which a trainer keeps the partition its
// next bucket shares: the lock server's lease table against a fake clock,
// the server-side wait, and — over recording wrappers around the real
// servers — the two invariants a node must keep and what it does when its
// leases go stale.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/train"
)

// leaseServer is a lock server over a parts×parts inside-out grid in epoch
// 2 (every partition established, nothing done), on a fake clock. maxWait
// is 0: the callers below share a goroutine and have nobody to wait for.
func leaseServer(t *testing.T, parts int, ttl time.Duration) (*LockServer, *fakeClock) {
	t.Helper()
	ls := NewLockServer(insideOutOrder(t, parts), WithLeaseTTL(ttl), WithRestoredEpoch(2, nil))
	clock := newFakeClock()
	withClock(ls, clock)
	ls.maxWait = 0
	return ls, clock
}

// tick advances the fake clock under the server's lock — where the server
// reads it — and wakes the waiters, as the passing of real time would.
func tick(ls *LockServer, c *fakeClock, d time.Duration) {
	ls.mu.Lock()
	c.advance(d)
	ls.cond.Broadcast()
	ls.mu.Unlock()
}

func leaseAcquire(t *testing.T, ls *LockServer, rank int, token uint64) AcquireReply {
	t.Helper()
	var rep AcquireReply
	if err := ls.AcquireBucket(AcquireArgs{Epoch: 2, Rank: rank, Token: token}, &rep); err != nil {
		t.Fatalf("rank %d acquire under token %d: %v", rank, token, err)
	}
	return rep
}

func grant(t *testing.T, ls *LockServer, rank int, token uint64, want partition.Bucket) AcquireReply {
	t.Helper()
	rep := leaseAcquire(t, ls, rank, token)
	if !rep.Granted || rep.Bucket != want {
		t.Fatalf("rank %d granted %v (granted %v), want %v", rank, rep.Bucket, rep.Granted, want)
	}
	return rep
}

func release(t *testing.T, ls *LockServer, rank int, token uint64, parts []int, buckets ...partition.Bucket) {
	t.Helper()
	args := ReleaseArgs{Epoch: 2, Rank: rank, Token: token, Buckets: buckets, Parts: parts}
	if err := ls.ReleaseBucket(args, &Ack{}); err != nil {
		t.Fatalf("rank %d release %v / %v: %v", rank, buckets, parts, err)
	}
}

func epochState(t *testing.T, ls *LockServer) EpochStateReply {
	t.Helper()
	var es EpochStateReply
	if err := ls.EpochState(EpochStateArgs{}, &es); err != nil {
		t.Fatal(err)
	}
	return es
}

func bk(p1, p2 int) partition.Bucket { return partition.Bucket{P1: p1, P2: p2} }

// TestLeaseGrantWhileHolding: a rank is granted its next bucket on top of
// the one it holds, over the partition they share, and the lease table says
// which of its leases are trained and not yet stored.
func TestLeaseGrantWhileHolding(t *testing.T) {
	ls, _ := leaseServer(t, 4, 0)
	a := grant(t, ls, 0, 0, bk(0, 0))
	b := grant(t, ls, 0, a.Token, bk(0, 1))
	c := grant(t, ls, 0, b.Token, bk(1, 1))
	if !(a.Token < b.Token && b.Token < c.Token) {
		t.Fatalf("tokens %d, %d, %d not strictly increasing", a.Token, b.Token, c.Token)
	}
	es := epochState(t, ls)
	if len(es.Done) != 0 || len(es.Leases) != 3 {
		t.Fatalf("done %v, leases %+v; want nothing done and three leases", es.Done, es.Leases)
	}
	for i, want := range []struct {
		b           partition.Bucket
		uncommitted bool
	}{{bk(0, 0), true}, {bk(0, 1), true}, {bk(1, 1), false}} {
		if l := es.Leases[i]; l.Rank != 0 || l.Bucket != want.b || l.Uncommitted != want.uncommitted {
			t.Errorf("lease %d = %+v, want rank 0 %v uncommitted=%v", i, l, want.b, want.uncommitted)
		}
	}
	if got := ls.leasesHeld.Value(); got != 3 {
		t.Errorf("pbg_dist_leases_held = %d, want 3 (uncommitted leases count)", got)
	}
	// The rank's older tokens are history: only the newest speaks for it.
	if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 2, Rank: 0, Token: a.Token, Parts: []int{0}}, &Ack{}); !IsStaleLease(err) {
		t.Fatalf("release under a superseded token = %v, want stale-lease rejection", err)
	}
}

// TestPartitionFreeWhenStored pins invariant (i): another rank cannot take
// a partition a rank carries, and can take it the moment the rank reports
// it stored — while the buckets that touched it are still uncommitted.
func TestPartitionFreeWhenStored(t *testing.T) {
	ls, _ := leaseServer(t, 4, 0)
	a := grant(t, ls, 0, 0, bk(0, 0))
	a = grant(t, ls, 0, a.Token, bk(0, 1))
	// Rank 1 is kept off partitions 0 and 1: the first bucket free of both.
	b := grant(t, ls, 1, 0, bk(2, 2))
	release(t, ls, 1, b.Token, nil, bk(2, 2))
	b = grant(t, ls, 1, 0, bk(2, 3))
	release(t, ls, 1, b.Token, nil, bk(2, 3))

	// Rank 0 moves on to (1,1): it stores partition 0 and says so. Neither
	// (0,0) nor (0,1) commits with it — (0,1)'s other half is still carried,
	// and the test leaves (0,0) out to show the two reports are independent.
	a = grant(t, ls, 0, a.Token, bk(1, 1))
	release(t, ls, 0, a.Token, []int{0})
	if es := epochState(t, ls); len(es.Done) != 2 || len(es.Leases) != 3 {
		t.Fatalf("done %v leases %+v: want only rank 1's two buckets done", es.Done, es.Leases)
	}
	b = grant(t, ls, 1, 0, bk(0, 2)) // partition 0, stored a moment ago
	// Partition 1 is still rank 0's.
	release(t, ls, 1, b.Token, nil, bk(0, 2))
	for {
		rep := leaseAcquire(t, ls, 1, 0)
		if !rep.Granted {
			break
		}
		if rep.Bucket.P1 == 1 || rep.Bucket.P2 == 1 {
			t.Fatalf("rank 1 granted %v over partition 1, which rank 0 carries", rep.Bucket)
		}
		release(t, ls, 1, rep.Token, nil, rep.Bucket)
	}
}

// TestHeartbeatRenewsAndExpiryReturnsAllLeases: one heartbeat keeps every
// lease of a rank alive; without it they all expire together — trained and
// not stored included — and go back to pending for another rank.
func TestHeartbeatRenewsAndExpiryReturnsAllLeases(t *testing.T) {
	const ttl = 100 * time.Millisecond
	ls, clock := leaseServer(t, 4, ttl)
	a := grant(t, ls, 0, 0, bk(0, 0))
	a = grant(t, ls, 0, a.Token, bk(0, 1))
	for i := 0; i < 3; i++ {
		tick(ls, clock, ttl*4/5)
		if err := ls.Heartbeat(HeartbeatArgs{Epoch: 2, Rank: 0, Token: a.Token}, &Ack{}); err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
	}
	if es := epochState(t, ls); len(es.Leases) != 2 || ls.expiries.Value() != 0 {
		t.Fatalf("after 2.4 TTL of heartbeats: leases %+v, expiries %d", es.Leases, ls.expiries.Value())
	}
	for _, l := range epochState(t, ls).Leases {
		if want := clock.now().Add(ttl); !l.Deadline.Equal(want) {
			t.Errorf("lease %v deadline %v, want %v: one heartbeat renews them all", l.Bucket, l.Deadline, want)
		}
	}
	tick(ls, clock, ttl+time.Millisecond)
	if es := epochState(t, ls); len(es.Leases) != 0 || len(es.Done) != 0 {
		t.Fatalf("after expiry: leases %+v done %v, want none of either", es.Leases, es.Done)
	}
	if got := ls.expiries.Value(); got != 2 {
		t.Fatalf("expiries = %d, want 2 (both of the rank's leases)", got)
	}
	// The zombie is told, whatever it calls.
	if err := ls.Heartbeat(HeartbeatArgs{Epoch: 2, Rank: 0, Token: a.Token}, &Ack{}); !IsStaleLease(err) {
		t.Fatalf("zombie heartbeat = %v, want stale-lease rejection", err)
	}
	var rep AcquireReply
	if err := ls.AcquireBucket(AcquireArgs{Epoch: 2, Rank: 0, Token: a.Token}, &rep); !IsStaleLease(err) {
		t.Fatalf("zombie acquire = %v, want stale-lease rejection", err)
	}
	// Both buckets are pending again, for whoever asks.
	b := grant(t, ls, 1, 0, bk(0, 0))
	grant(t, ls, 1, b.Token, bk(0, 1))
}

// TestAcquireLostReplyRegrants: an AcquireBucket whose reply was lost is
// answered again, not granted a second bucket — the orphan would never
// expire, one heartbeat renewing everything a rank has.
func TestAcquireLostReplyRegrants(t *testing.T) {
	ls, _ := leaseServer(t, 4, 0)
	first := grant(t, ls, 0, 0, bk(0, 0))
	// The rank never saw it and asks again, holding nothing as far as it knows.
	again := grant(t, ls, 0, 0, bk(0, 0))
	if again.Token != first.Token {
		t.Fatalf("retry granted token %d, want the lost grant %d again", again.Token, first.Token)
	}
	next := grant(t, ls, 0, again.Token, bk(0, 1))
	// Lost again, this time while holding: the retry carries the old token.
	retry := grant(t, ls, 0, again.Token, bk(0, 1))
	if retry.Token != next.Token {
		t.Fatalf("retry granted token %d, want the same grant %d again", retry.Token, next.Token)
	}
	if es := epochState(t, ls); len(es.Leases) != 2 {
		t.Fatalf("leases %+v, want exactly (0,0) and (0,1)", es.Leases)
	}
	// A rank that holds two leases and claims to hold nothing has lost its
	// memory — a restarted process: its leases go back, and it starts over.
	fresh := grant(t, ls, 0, 0, bk(0, 0))
	if es := epochState(t, ls); len(es.Leases) != 1 || fresh.Token <= next.Token {
		t.Fatalf("after the restart: leases %+v, token %d; want one lease under a newer token than %d", es.Leases, fresh.Token, next.Token)
	}
}

// waiter runs one AcquireBucket on its own goroutine and reports how it
// ended.
type waiter struct {
	rep  AcquireReply
	err  error
	done chan struct{}
}

func startWaiter(t *testing.T, ls *LockServer, args AcquireArgs) *waiter {
	t.Helper()
	w := &waiter{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		w.err = ls.AcquireBucket(args, &w.rep)
	}()
	waitUntil(t, func() bool {
		ls.mu.Lock()
		defer ls.mu.Unlock()
		return ls.waiting > 0
	})
	return w
}

func (w *waiter) wait(t *testing.T) {
	t.Helper()
	select {
	case <-w.done:
	case <-time.After(10 * time.Second):
		t.Fatal("waiter never woke")
	}
}

// TestAcquireWaitsOnTheServer: a caller that holds nothing waits on the lock
// server until the answer changes — a release, an expiry, StartEpoch, the
// bound, shutdown — and one that holds partitions is answered at once.
func TestAcquireWaitsOnTheServer(t *testing.T) {
	t.Run("wakes on a release", func(t *testing.T) {
		ls, _ := leaseServer(t, 2, 0)
		ls.maxWait = time.Hour
		a := grant(t, ls, 0, 0, bk(0, 0))
		b := grant(t, ls, 1, 0, bk(1, 1))
		w := startWaiter(t, ls, AcquireArgs{Epoch: 2, Rank: 2})
		release(t, ls, 1, b.Token, nil, bk(1, 1))
		select {
		case <-w.done:
			t.Fatalf("waiter woke with %+v while every pending bucket still touches partition 0", w.rep)
		default:
		}
		release(t, ls, 0, a.Token, nil, bk(0, 0))
		w.wait(t)
		if w.err != nil || !w.rep.Granted {
			t.Fatalf("waiter got %+v, %v; want a grant", w.rep, w.err)
		}
	})
	t.Run("wakes on an expiry by its own timer", func(t *testing.T) {
		// Real clock: nothing but the waiter's timer runs after the grant.
		ls := NewLockServer(insideOutOrder(t, 1), WithLeaseTTL(20*time.Millisecond), WithRestoredEpoch(2, nil))
		grant(t, ls, 0, 0, bk(0, 0)) // and never a heartbeat
		w := startWaiter(t, ls, AcquireArgs{Epoch: 2, Rank: 1})
		w.wait(t)
		if w.err != nil || !w.rep.Granted || w.rep.Bucket != bk(0, 0) {
			t.Fatalf("waiter got %+v, %v; want the expired (0,0)", w.rep, w.err)
		}
		if got := ls.expiries.Value(); got != 1 {
			t.Fatalf("expiries = %d, want 1", got)
		}
	})
	t.Run("wakes when the epoch starts", func(t *testing.T) {
		ls := NewLockServer(insideOutOrder(t, 2))
		w := startWaiter(t, ls, AcquireArgs{Epoch: 1, Rank: 0})
		if err := ls.StartEpoch(StartEpochArgs{Epoch: 1}, &StartEpochReply{}); err != nil {
			t.Fatal(err)
		}
		w.wait(t)
		if w.err != nil || !w.rep.Granted {
			t.Fatalf("waiter got %+v, %v; want the first grant of epoch 1", w.rep, w.err)
		}
	})
	t.Run("gives up at the bound", func(t *testing.T) {
		ls, clock := leaseServer(t, 1, 0)
		ls.maxWait = time.Minute
		grant(t, ls, 0, 0, bk(0, 0))
		w := startWaiter(t, ls, AcquireArgs{Epoch: 2, Rank: 1})
		tick(ls, clock, 59*time.Second)
		select {
		case <-w.done:
			t.Fatal("waiter gave up before the bound")
		default:
		}
		tick(ls, clock, time.Second)
		w.wait(t)
		if w.err != nil || w.rep.Granted || w.rep.Done {
			t.Fatalf("waiter got %+v, %v; want neither granted nor done", w.rep, w.err)
		}
	})
	t.Run("fails at shutdown", func(t *testing.T) {
		ls, _ := leaseServer(t, 1, 0)
		ls.maxWait = time.Hour
		grant(t, ls, 0, 0, bk(0, 0))
		w := startWaiter(t, ls, AcquireArgs{Epoch: 2, Rank: 1})
		ls.close()
		w.wait(t)
		if w.err == nil {
			t.Fatalf("waiter got %+v from a closed server, want an error", w.rep)
		}
	})
	t.Run("a holder never waits", func(t *testing.T) {
		ls, _ := leaseServer(t, 2, 0)
		ls.maxWait = time.Hour
		a := grant(t, ls, 0, 0, bk(0, 0))
		grant(t, ls, 1, 0, bk(1, 1))
		// Everything left touches partition 1, which rank 1 holds: rank 0 is
		// told so at once — it must let go before it may wait.
		rep := leaseAcquire(t, ls, 0, a.Token)
		if rep.Granted || rep.Done {
			t.Fatalf("rank 0 got %+v, want neither", rep)
		}
	})
}

// TestShutdownLeavesNoGoroutine: a waiter asleep on the lock server when the
// cluster shuts down is woken and fails, and nothing the cluster started
// outlives Shutdown.
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	cl, err := NewCluster(chaosGraph(t), insideOutOrder(t, 4), ClusterConfig{
		Machines: 2, Seed: 3, Train: train.Config{Dim: 8, Workers: 1, Seed: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RunEpoch(); err != nil {
		t.Fatal(err)
	}
	// A trainer early for an epoch nobody will start.
	w := startWaiter(t, cl.lockSrv, AcquireArgs{Epoch: 2, Rank: 0})
	cl.Shutdown()
	w.wait(t)
	if w.err == nil {
		t.Fatalf("waiter survived Shutdown with %+v", w.rep)
	}
	waitUntil(t, func() bool { return runtime.NumGoroutine() <= before })
}

// --- recording wrappers: the real servers, with every call that matters
// logged in the order the servers saw it ---

type wireEvent struct {
	kind    string // "grant", "put", "release"
	rank    int
	bucket  partition.Bucket   // grant
	part    int                // put
	buckets []partition.Bucket // release
	parts   []int              // release
}

type wireLog struct {
	mu     sync.Mutex
	events []wireEvent
}

func (l *wireLog) add(e wireEvent) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *wireLog) snapshot() []wireEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]wireEvent(nil), l.events...)
}

// recLock is a LockServer that logs grants (after they are made) and
// releases (before they are applied: a release logged ahead of a Put it
// needed is the bug). beforeAcquire, if set, runs ahead of every
// AcquireBucket with the number of that rank's calls so far.
type recLock struct {
	*LockServer
	log           *wireLog
	mu            sync.Mutex
	calls         map[int]int
	beforeAcquire func(rank, call int)
}

func (r *recLock) AcquireBucket(args AcquireArgs, reply *AcquireReply) error {
	r.mu.Lock()
	r.calls[args.Rank]++
	n := r.calls[args.Rank]
	r.mu.Unlock()
	if r.beforeAcquire != nil {
		r.beforeAcquire(args.Rank, n)
	}
	err := r.LockServer.AcquireBucket(args, reply)
	if err == nil && reply.Granted {
		r.log.add(wireEvent{kind: "grant", rank: args.Rank, bucket: reply.Bucket})
	}
	return err
}

func (r *recLock) ReleaseBucket(args ReleaseArgs, reply *Ack) error {
	r.log.add(wireEvent{kind: "release", rank: args.Rank, buckets: args.Buckets, parts: args.Parts})
	return r.LockServer.ReleaseBucket(args, reply)
}

// recPart is a PartitionServer that logs the Puts it accepted.
type recPart struct {
	*PartitionServer
	log *wireLog
}

func (r *recPart) Put(args PutArgs, reply *Ack) error {
	err := r.PartitionServer.Put(args, reply)
	if err == nil {
		l, _ := wireLayout(args.Shard)
		r.log.add(wireEvent{kind: "put", part: l.Part})
	}
	return err
}

// wiredNodes serves a recording lock server and one recording partition
// server over g's grid and connects n trainer nodes to them. The epoch the
// lock server is in is whatever lockOpts left it in.
func wiredNodes(t *testing.T, g *graph.Graph, n int, hub *obs.Hub, lockOpts ...LockOption) (*recLock, []*Node) {
	t.Helper()
	const parts, dim = 4, 8
	log := &wireLog{}
	lock := &recLock{LockServer: NewLockServer(insideOutOrder(t, parts), lockOpts...), log: log, calls: map[int]int{}}
	part := &recPart{PartitionServer: NewPartitionServer(g.Schema, dim, 3, partServerStripes), log: log}
	ll, lockAddr, err := serve(map[string]any{"LockServer": lock})
	if err != nil {
		t.Fatal(err)
	}
	pl, partAddr, err := serve(map[string]any{"PartitionServer": part})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		lock.close()
		_ = ll.Close() // listeners only stop accepting; nothing to report
		_ = pl.Close()
	})
	var nodes []*Node
	for rank := 0; rank < n; rank++ {
		node, err := NewNode(g, NodeConfig{
			Rank: rank, LockAddr: lockAddr, PartitionAddrs: []string{partAddr},
			Train: train.Config{Dim: dim, Workers: 1, Seed: RankSeed(9, rank), Obs: hub},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		nodes = append(nodes, node)
	}
	return lock, nodes
}

// runNodes runs one epoch on every node at once and returns the merged
// bucket count.
func runNodes(t *testing.T, nodes []*Node) (buckets int) {
	t.Helper()
	stats := make([]EpochStats, len(nodes))
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			stats[i], errs[i] = n.RunEpoch()
		}(i, n)
	}
	wg.Wait()
	for i := range nodes {
		if errs[i] != nil {
			t.Fatalf("rank %d: %v", i, errs[i])
		}
		buckets += stats[i].Buckets
	}
	return buckets
}

// TestBucketDoneOnlyAfterBothPuts pins invariant (ii): whenever a node
// reports a bucket done, the partition servers have accepted a Put of each
// of its partitions since the bucket was granted — so since it was trained,
// a node storing, between a grant and the end of its training, only what
// the bucket does not need. It also checks the other half of the rule: a
// node never reports a partition stored that it has not Put.
func TestBucketDoneOnlyAfterBothPuts(t *testing.T) {
	g := chaosGraph(t)
	lock, nodes := wiredNodes(t, g, 2, nil)
	for epoch := 1; epoch <= 2; epoch++ {
		if err := lock.StartEpoch(StartEpochArgs{Epoch: epoch}, &StartEpochReply{}); err != nil {
			t.Fatal(err)
		}
		if got := runNodes(t, nodes); got != 16 {
			t.Fatalf("epoch %d committed %d buckets, want 16", epoch, got)
		}
	}
	events := lock.log.snapshot()
	committed, carried := 0, 0
	for i, e := range events {
		if e.kind != "release" {
			continue
		}
		for _, b := range e.buckets {
			committed++
			granted := -1
			for j := i - 1; j >= 0 && granted < 0; j-- {
				if events[j].kind == "grant" && events[j].rank == e.rank && events[j].bucket == b {
					granted = j
				}
			}
			if granted < 0 {
				t.Fatalf("event %d: rank %d released %v it was never granted", i, e.rank, b)
			}
			for _, p := range b.Parts() {
				stored := false
				for j := granted + 1; j < i; j++ {
					stored = stored || (events[j].kind == "put" && events[j].part == p)
				}
				if !stored {
					t.Errorf("event %d: rank %d reported %v done with no Put of partition %d since its grant (event %d)", i, e.rank, b, p, granted)
				}
			}
			// A bucket committed after a later grant was carried.
			for j := granted + 1; j < i; j++ {
				if events[j].kind == "grant" && events[j].rank == e.rank {
					carried++
					break
				}
			}
		}
		for _, p := range e.parts {
			// An unlocked partition was either stored since this rank took it,
			// or belonged to an empty bucket and never fetched; either way no
			// training on it is in the node's memory alone. The chaos graph
			// has no empty bucket, so: stored.
			stored := false
			for j := i - 1; j >= 0 && !stored; j-- {
				stored = events[j].kind == "put" && events[j].part == p
			}
			if !stored {
				t.Errorf("event %d: rank %d unlocked partition %d it never Put", i, e.rank, p)
			}
		}
	}
	if committed != 32 {
		t.Fatalf("%d buckets committed over two epochs, want 32", committed)
	}
	if carried == 0 {
		t.Fatal("no bucket was committed after a later grant: the run never carried a partition, the test proved nothing")
	}
}

// TestStaleLeaseDiscardsUnwritten: a node told its leases are stale drops
// every shard it holds without a Put, counts each uncommitted bucket as a
// lost lease, and carries on — the epoch still commits every bucket once.
func TestStaleLeaseDiscardsUnwritten(t *testing.T) {
	const ttl = time.Hour // fake hours: the node's real-time heartbeat never fires
	g := chaosGraph(t)
	hub := obs.NewQuietHub()
	clock := newFakeClock()
	lock, nodes := wiredNodes(t, g, 1, hub, WithLeaseTTL(ttl))
	withClock(lock.LockServer, clock)
	var uncommitted, mark int
	lock.beforeAcquire = func(rank, call int) {
		if call != 5 {
			return
		}
		// Four buckets trained, a chain over partitions 0 and 1. Expire the
		// lot just as the node asks for the fifth.
		var es EpochStateReply
		_ = lock.EpochState(EpochStateArgs{}, &es) // never fails
		uncommitted = len(es.Leases)
		mark = len(lock.log.snapshot())
		tick(lock.LockServer, clock, 2*ttl)
	}
	if err := lock.StartEpoch(StartEpochArgs{Epoch: 1}, &StartEpochReply{}); err != nil {
		t.Fatal(err)
	}
	if got := runNodes(t, nodes); got != 16 {
		t.Fatalf("epoch committed %d buckets, want all 16 (the lost ones retrained)", got)
	}
	if uncommitted < 2 {
		t.Fatalf("the node held %d leases at its fifth acquire, want a chain of at least 2", uncommitted)
	}
	if got := hub.Reg.Snapshot().Counters["pbg_dist_leases_lost_total"]; got != int64(uncommitted) {
		t.Errorf("pbg_dist_leases_lost_total = %d, want %d (one per uncommitted bucket)", got, uncommitted)
	}
	if got := lock.expiries.Value(); got != int64(uncommitted) {
		t.Errorf("lock server expired %d leases, want %d", got, uncommitted)
	}
	// The first thing the servers hear from the node after the stale reply is
	// its next grant: what it held was dropped — no Put — and nothing of it
	// reported.
	if next := lock.log.snapshot()[mark]; next.kind != "grant" {
		t.Errorf("after its leases went stale the node sent %+v, want nothing before its next grant", next)
	}
	if got := hub.Reg.Snapshot().Gauges["pbg_dist_buckets_uncommitted"]; got != 0 {
		t.Errorf("pbg_dist_buckets_uncommitted = %d after the epoch, want 0", got)
	}
}
