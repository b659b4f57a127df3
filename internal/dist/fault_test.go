package dist

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pbg/internal/partition"
	"pbg/internal/storage"
)

// fakeClock is a manually advanced clock for deterministic lease-expiry
// tests: expiry is lazy (checked at RPC time), so pausing time pauses it.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func withClock(ls *LockServer, c *fakeClock) { ls.now = c.now }

// mustAcquire drives AcquireBucket until it grants, failing on Done.
func mustAcquire(t *testing.T, ls *LockServer, epoch, rank int) AcquireReply {
	t.Helper()
	var rep AcquireReply
	if err := ls.AcquireBucket(AcquireArgs{Epoch: epoch, Rank: rank}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Granted {
		t.Fatalf("expected a grant for rank %d, got %+v", rank, rep)
	}
	return rep
}

// TestLeaseExpiryEdgeCases covers the lease-lifecycle races the fencing
// tokens exist for: a release racing its own lease's expiry, re-leasing a
// bucket whose partitions the dead holder still has checked out, double
// expiry of one lease, and idempotent release retries.
func TestLeaseExpiryEdgeCases(t *testing.T) {
	const ttl = 100 * time.Millisecond
	order, err := partition.Order(partition.OrderInsideOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	newServer := func(t *testing.T) (*LockServer, *fakeClock) {
		t.Helper()
		ls := NewLockServer(order, WithLeaseTTL(ttl))
		clock := newFakeClock()
		withClock(ls, clock)
		var se StartEpochReply
		if err := ls.StartEpoch(StartEpochArgs{Epoch: 1}, &se); err != nil {
			t.Fatal(err)
		}
		return ls, clock
	}

	t.Run("expiry racing legitimate release", func(t *testing.T) {
		ls, clock := newServer(t)
		rep := mustAcquire(t, ls, 1, 0)
		clock.advance(ttl + time.Millisecond)
		var ack Ack
		err := ls.ReleaseBucket(ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token, Buckets: []partition.Bucket{rep.Bucket}}, &ack)
		if !IsStaleLease(err) {
			t.Fatalf("release after expiry = %v, want stale-lease rejection", err)
		}
		if got := ls.expiries.Value(); got != 1 {
			t.Fatalf("expiries = %d, want 1", got)
		}
		// The bucket went back to the scheduler: someone else can lease it.
		rep2 := mustAcquire(t, ls, 1, 1)
		if rep2.Bucket != rep.Bucket {
			t.Fatalf("re-lease granted %v, want the abandoned %v", rep2.Bucket, rep.Bucket)
		}
		if rep2.Token <= rep.Token {
			t.Fatalf("re-lease token %d not newer than %d", rep2.Token, rep.Token)
		}
	})

	t.Run("re-lease with dead holder's partitions checked out", func(t *testing.T) {
		ls, clock := newServer(t)
		rep := mustAcquire(t, ls, 1, 0) // rank 0 "checks out" the partitions, then dies
		clock.advance(ttl + time.Millisecond)
		rep2 := mustAcquire(t, ls, 1, 1) // expiry + re-lease in one call
		if rep2.Bucket != rep.Bucket {
			t.Fatalf("re-lease granted %v, want %v", rep2.Bucket, rep.Bucket)
		}
		// The zombie's whole lease vocabulary is now rejected...
		var ack Ack
		if err := ls.Heartbeat(HeartbeatArgs{Epoch: 1, Rank: 0, Token: rep.Token}, &ack); !IsStaleLease(err) {
			t.Fatalf("zombie heartbeat = %v, want stale-lease rejection", err)
		}
		if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token, Buckets: []partition.Bucket{rep.Bucket}}, &ack); !IsStaleLease(err) {
			t.Fatalf("zombie release = %v, want stale-lease rejection", err)
		}
		// ...but its abandon is a harmless no-op that must NOT kill the new
		// holder's lease.
		if err := ls.AbandonBucket(ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token, Buckets: []partition.Bucket{rep.Bucket}}, &ack); err != nil {
			t.Fatalf("zombie abandon = %v, want nil", err)
		}
		if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 1, Rank: 1, Token: rep2.Token, Buckets: []partition.Bucket{rep2.Bucket}}, &ack); err != nil {
			t.Fatalf("new holder's release = %v", err)
		}
	})

	t.Run("double expiry counts once", func(t *testing.T) {
		ls, clock := newServer(t)
		rep := mustAcquire(t, ls, 1, 0)
		clock.advance(ttl + time.Millisecond)
		var es EpochStateReply
		if err := ls.EpochState(EpochStateArgs{}, &es); err != nil { // triggers expiry
			t.Fatal(err)
		}
		if err := ls.EpochState(EpochStateArgs{}, &es); err != nil { // must not expire again
			t.Fatal(err)
		}
		if got := ls.expiries.Value(); got != 1 {
			t.Fatalf("expiries = %d, want exactly 1", got)
		}
		if len(es.Leases) != 0 {
			t.Fatalf("leases = %v after expiry", es.Leases)
		}
		_ = rep
	})

	t.Run("heartbeat keeps a slow lease alive", func(t *testing.T) {
		ls, clock := newServer(t)
		rep := mustAcquire(t, ls, 1, 0)
		var ack Ack
		for i := 0; i < 3; i++ {
			clock.advance(ttl * 4 / 5)
			if err := ls.Heartbeat(HeartbeatArgs{Epoch: 1, Rank: 0, Token: rep.Token}, &ack); err != nil {
				t.Fatalf("heartbeat %d: %v", i, err)
			}
		}
		// 2.4×TTL of wall time has passed, but the lease is still valid.
		if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token, Buckets: []partition.Bucket{rep.Bucket}}, &ack); err != nil {
			t.Fatalf("release after heartbeats = %v", err)
		}
		if got := ls.expiries.Value(); got != 0 {
			t.Fatalf("expiries = %d, want 0", got)
		}
	})

	t.Run("release retry is idempotent", func(t *testing.T) {
		ls, _ := newServer(t)
		rep := mustAcquire(t, ls, 1, 0)
		var ack Ack
		args := ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token, Buckets: []partition.Bucket{rep.Bucket}}
		if err := ls.ReleaseBucket(args, &ack); err != nil {
			t.Fatal(err)
		}
		// The reply was "lost"; the client retries the identical call.
		if err := ls.ReleaseBucket(args, &ack); err != nil {
			t.Fatalf("retried release = %v, want idempotent nil", err)
		}
		// A different (zombie) token for the same bucket still fails.
		if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token + 99, Buckets: []partition.Bucket{rep.Bucket}}, &ack); !IsStaleLease(err) {
			t.Fatalf("foreign-token release = %v, want stale-lease rejection", err)
		}
	})
}

// getShard calls ps.Get in process and decodes the reply as a client would.
func getShard(ps *PartitionServer, args GetArgs) (*storage.Shard, error) {
	var rep ShardReply
	if err := ps.Get(args, &rep); err != nil {
		return nil, err
	}
	args.Count = ps.schema.Entities[args.TypeIndex].PartitionCount(args.Part)
	return decodeGetReply(args, rep.Shard)
}

// putShard encodes sh as a client would and calls ps.Put in process.
func putShard(ps *PartitionServer, sh *storage.Shard, token uint64) error {
	b, err := encodeShard(sh)
	if err != nil {
		return err
	}
	return ps.Put(PutArgs{Shard: b, Token: token}, &Ack{})
}

// TestFencedZombieWriteRejected is the acceptance-bar unit test: once a
// newer lease has touched a shard, a Put carrying the older lease's token is
// provably rejected, so a zombie trainer can never overwrite the re-leased
// holder's committed state.
func TestFencedZombieWriteRejected(t *testing.T) {
	schema := testSchema(t)
	const dim = 4
	ps := NewPartitionServer(schema, dim, 7)

	fetch := func(token uint64) (*storage.Shard, error) {
		return getShard(ps, GetArgs{TypeIndex: 0, Part: 1, Dim: dim, InitScale: 1, Token: token})
	}
	put := func(sh *storage.Shard, token uint64) error { return putShard(ps, sh, token) }
	// The doomed trainer checks the shard out under token 5 and trains it.
	zombie, err := fetch(5)
	if err != nil {
		t.Fatal(err)
	}
	zombie.Embs[0] = -999
	// Its lease expires; the bucket is re-leased under token 9, whose holder
	// reads and writes the shard.
	fresh, err := fetch(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := put(fresh, 9); err != nil {
		t.Fatal(err)
	}
	// The zombie's late write must be rejected...
	err = put(zombie, 5)
	if !IsFenced(err) {
		t.Fatalf("zombie Put = %v, want fenced rejection", err)
	}
	if got := ps.fencedRejects.Value(); got != 1 {
		t.Fatalf("fenced rejects = %d, want 1", got)
	}
	// ...and so must its attempt to re-read for another try.
	if _, err := fetch(5); !IsFenced(err) {
		t.Fatalf("zombie Get = %v, want fenced rejection", err)
	}
	// An unfenced (token-0) write to a fenced shard is likewise refused, but
	// unfenced reads (evaluation snapshots) still work and see the fresh
	// holder's state, not the zombie's.
	if err := put(zombie, 0); !IsFenced(err) {
		t.Fatalf("token-0 Put on fenced shard = %v, want fenced rejection", err)
	}
	got, err := fetch(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Embs[0] == -999 {
		t.Fatal("zombie write reached the canonical shard")
	}
}

// TestRetryClientTransientRetry checks the retry wrapper's two halves:
// transport-level failures (here chaos-dropped sends) are retried with
// backoff until the call lands, while server-returned errors pass through on
// the first attempt.
func TestRetryClientTransientRetry(t *testing.T) {
	order, err := partition.Order(partition.OrderInsideOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLockServer(order)
	l, addr, err := serve(map[string]any{"LockServer": ls})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	chaos := NewChaos(7, ChaosRule{Tag: "t", Method: "LockServer.StartEpoch", DropSend: 1, First: 2})
	policy := RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond}
	rc, err := dialRetry("lock server", addr, policy, chaos, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	// First two attempts are dropped on the wire; the third succeeds.
	var rep StartEpochReply
	if err := rc.Call("LockServer.StartEpoch", StartEpochArgs{Epoch: 1}, &rep); err != nil {
		t.Fatalf("Call through chaos = %v", err)
	}
	if rep.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", rep.Epoch)
	}
	if got := rc.retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	// A server-side rejection is NOT retried: the retry counter stays put.
	var ack Ack
	err = rc.Call("LockServer.ReleaseBucket", ReleaseArgs{Epoch: 1, Buckets: []partition.Bucket{{P1: 0, P2: 0}}}, &ack)
	if err == nil {
		t.Fatal("expected server error for unleased release")
	}
	if got := rc.retries.Value(); got != 2 {
		t.Fatalf("server error consumed %d extra retries", got-2)
	}
}

// TestDropReplyIdempotentRelease exercises the lost-reply path end to end
// over real RPC: the server applies a ReleaseBucket but the reply is
// dropped, the client retries, and the retry succeeds through the released
// map instead of failing as "unleased".
func TestDropReplyIdempotentRelease(t *testing.T) {
	order, err := partition.Order(partition.OrderInsideOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	ls := NewLockServer(order)
	l, addr, err := serve(map[string]any{"LockServer": ls})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	chaos := NewChaos(3, ChaosRule{Tag: "t", Method: "LockServer.ReleaseBucket", DropReply: 1, First: 1})
	rc, err := dialRetry("lock server", addr, RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}, chaos, "t")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	var se StartEpochReply
	if err := rc.Call("LockServer.StartEpoch", StartEpochArgs{Epoch: 1}, &se); err != nil {
		t.Fatal(err)
	}
	var rep AcquireReply
	if err := rc.Call("LockServer.AcquireBucket", AcquireArgs{Epoch: 1, Rank: 0}, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Granted {
		t.Fatalf("no grant: %+v", rep)
	}
	var ack Ack
	if err := rc.Call("LockServer.ReleaseBucket",
		ReleaseArgs{Epoch: 1, Rank: 0, Token: rep.Token, Buckets: []partition.Bucket{rep.Bucket}}, &ack); err != nil {
		t.Fatalf("release through dropped reply = %v", err)
	}
	// The bucket really was committed exactly once.
	var es EpochStateReply
	if err := rc.Call("LockServer.EpochState", EpochStateArgs{}, &es); err != nil {
		t.Fatal(err)
	}
	if len(es.Done) != 1 || es.Done[0] != rep.Bucket {
		t.Fatalf("done = %v, want [%v]", es.Done, rep.Bucket)
	}
	if len(es.Leases) != 0 {
		t.Fatalf("leases = %v after release", es.Leases)
	}
}

// TestPartitionServerDurableRestart checks the durable write path: shards
// written to a durable server survive its shutdown and are served (not
// re-initialised) by a fresh server over the same directory.
func TestPartitionServerDurableRestart(t *testing.T) {
	schema := testSchema(t)
	const dim = 4
	dir := t.TempDir()
	ps := NewPartitionServer(schema, dim, 7, WithDurableDir(dir))

	sh, err := getShard(ps, GetArgs{TypeIndex: 0, Part: 1, Dim: dim, InitScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh.Embs[0] = 123.5
	sh.Acc[0] = 6.25
	if err := putShard(ps, sh, 0); err != nil {
		t.Fatal(err)
	}
	var ack Ack
	if err := ps.Flush(FlushArgs{}, &ack); err != nil {
		t.Fatal(err)
	}
	if err := ps.closeDurable(); err != nil {
		t.Fatal(err)
	}
	// The flushed shard is on disk in the shared DiskStore format.
	if _, err := storage.ReadShard(storage.ShardPath(dir, 0, 1)); err != nil {
		t.Fatalf("durable shard unreadable: %v", err)
	}

	// A "restarted" server over the same directory serves the written state.
	ps2 := NewPartitionServer(schema, dim, 7, WithDurableDir(dir))
	defer ps2.closeDurable()
	back, err := getShard(ps2, GetArgs{TypeIndex: 0, Part: 1, Dim: dim, InitScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if back.Embs[0] != 123.5 || back.Acc[0] != 6.25 {
		t.Fatalf("restart lost the write: emb %v acc %v", back.Embs[0], back.Acc[0])
	}
	// Untouched partitions still lazy-init deterministically.
	fresh, err := getShard(ps2, GetArgs{TypeIndex: 0, Part: 2, Dim: dim, InitScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Embs) == 0 {
		t.Fatal("lazy init of unwritten partition failed")
	}
}

// TestManifestRoundTrip checks checkpoint-manifest persistence, including
// the fresh-directory and corrupt-manifest cases.
func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := ReadManifest(dir, 4, 4); err != nil || ok {
		t.Fatalf("fresh dir: ok=%v err=%v, want absent manifest", ok, err)
	}
	m := &Manifest{Epoch: 3, Done: []partition.Bucket{{P1: 0, P2: 0}, {P1: 1, P2: 2}}}
	if err := WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := ReadManifest(dir, 4, 4)
	if err != nil || !ok {
		t.Fatalf("ReadManifest: ok=%v err=%v", ok, err)
	}
	if got.Epoch != 3 || len(got.Done) != 2 || got.Done[1] != (partition.Bucket{P1: 1, P2: 2}) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ReadManifest(dir, 4, 4); err == nil || ok {
		t.Fatalf("corrupt manifest: ok=%v err=%v, want an error", ok, err)
	}
}

// TestIsTransientClassification pins which failures the retry loop may
// retry: transport trouble yes, server verdicts no.
func TestIsTransientClassification(t *testing.T) {
	if isTransientRPC(nil) {
		t.Fatal("nil is not transient")
	}
	if !isTransientRPC(errCallTimeout) || !isTransientRPC(errChaosDrop) {
		t.Fatal("timeouts and drops must be transient")
	}
	if isTransientRPC(errChaosKilled) {
		t.Fatal("a killed node is not transient")
	}
	// A server-returned error (how rpc.ServerError reaches clients).
	if isTransientRPC(serverErrorFor(t)) {
		t.Fatal("rpc.ServerError must not be retried")
	}
}

// serverErrorFor obtains a genuine rpc.ServerError by making a real RPC that
// the server rejects.
func serverErrorFor(t *testing.T) error {
	t.Helper()
	order, err := partition.Order(partition.OrderInsideOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, addr, err := serve(map[string]any{"LockServer": NewLockServer(order)})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rc, err := dialRetry("lock server", addr, RetryPolicy{}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var ack Ack
	err = rc.Call("LockServer.ReleaseBucket", ReleaseArgs{Buckets: []partition.Bucket{{}}}, &ack)
	if err == nil {
		t.Fatal("expected a server error")
	}
	if !strings.Contains(err.Error(), "unleased") && !IsStaleLease(err) {
		t.Fatalf("unexpected error shape: %v", err)
	}
	return err
}
