package partition_test

// The lock server (internal/dist) leases the buckets of the orders this
// package plans. These tests drive it through its RPC surface over
// inside-out orders, in an epoch whose partitions are all established, and
// hold its partition locks to a model of the grant rule. A rank that holds
// nothing and is refused waits on the server, so the model is asked first
// and such a rank only asks when it will be granted.

import (
	"reflect"
	"testing"
	"testing/quick"

	"pbg/internal/dist"
	"pbg/internal/partition"
)

// lockServer is a lock server over a p×p inside-out grid in epoch 2: every
// partition established, nothing done.
func lockServer(t *testing.T, p int) (*dist.LockServer, []partition.Bucket) {
	t.Helper()
	order, err := partition.Order(partition.OrderInsideOut, p, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	return dist.NewLockServer(order, dist.WithRestoredEpoch(2, nil)), order
}

// leaseModel is the lock server's lease table as the grant rule sees it once
// every partition is established.
type leaseModel struct {
	order  []partition.Bucket
	done   map[partition.Bucket]bool
	leased map[int][]partition.Bucket // rank → its uncommitted buckets
	holds  map[int]int                // partition → rank
	tokens map[int]uint64             // rank → its newest token
}

func newLeaseModel(order []partition.Bucket) *leaseModel {
	return &leaseModel{
		order:  order,
		done:   map[partition.Bucket]bool{},
		leased: map[int][]partition.Bucket{},
		holds:  map[int]int{},
		tokens: map[int]uint64{},
	}
}

// next is the bucket the grant rule gives rank: the first of the order that
// is pending and touches no other rank's partition, of those the most over
// rank's own.
func (m *leaseModel) next(rank int) (best partition.Bucket, ok bool) {
	leased := map[partition.Bucket]bool{}
	for _, bs := range m.leased {
		for _, b := range bs {
			leased[b] = true
		}
	}
	bestScore := -1
	for _, b := range m.order {
		if m.done[b] || leased[b] {
			continue
		}
		o1, held1 := m.holds[b.P1]
		o2, held2 := m.holds[b.P2]
		if (held1 && o1 != rank) || (held2 && o2 != rank) {
			continue
		}
		score := 0
		if held1 {
			score++
		}
		if held2 {
			score++
		}
		if score > bestScore {
			best, bestScore = b, score
		}
	}
	return best, bestScore >= 0
}

// acquire asks the server for rank's next bucket and holds the answer to the
// model's. It returns false on a mismatch; asked is false when rank holds
// nothing and the model refuses it, so it did not ask.
func (m *leaseModel) acquire(t *testing.T, ls *dist.LockServer, rank int) (rep dist.AcquireReply, asked, ok bool) {
	want, grantable := m.next(rank)
	finished := len(m.done) == len(m.order)
	if !finished && !grantable && len(m.leased[rank]) == 0 {
		return rep, false, true
	}
	if err := ls.AcquireBucket(dist.AcquireArgs{Epoch: 2, Rank: rank, Token: m.tokens[rank]}, &rep); err != nil {
		t.Logf("rank %d acquire: %v", rank, err)
		return rep, true, false
	}
	switch {
	case finished:
		if !rep.Done {
			t.Logf("rank %d answered %+v with every bucket done", rank, rep)
			return rep, true, false
		}
		return rep, true, true
	case !grantable:
		if rep.Granted {
			t.Logf("rank %d granted %v, the model refuses it", rank, rep.Bucket)
			return rep, true, false
		}
		return rep, true, true
	}
	if !rep.Granted || rep.Bucket != want {
		t.Logf("rank %d answered %+v, want %v", rank, rep, want)
		return rep, true, false
	}
	for _, part := range rep.Bucket.Parts() {
		if o, locked := m.holds[part]; locked && o != rank {
			t.Logf("bucket %v granted to rank %d over partition %d held by rank %d", rep.Bucket, rank, part, o)
			return rep, true, false
		}
		m.holds[part] = rank
	}
	m.leased[rank] = append(m.leased[rank], rep.Bucket)
	m.tokens[rank] = rep.Token
	return rep, true, true
}

// commit marks bs done; store gives up rank's lock on parts. A rank left
// with no lease holds nothing.
func (m *leaseModel) release(rank int, parts []int, bs []partition.Bucket) dist.ReleaseArgs {
	for _, part := range parts {
		if m.holds[part] == rank {
			delete(m.holds, part)
		}
	}
	var keep []partition.Bucket
	for _, b := range m.leased[rank] {
		committed := false
		for _, c := range bs {
			committed = committed || c == b
		}
		if committed {
			m.done[b] = true
		} else {
			keep = append(keep, b)
		}
	}
	args := dist.ReleaseArgs{Epoch: 2, Rank: rank, Token: m.tokens[rank], Buckets: bs, Parts: parts}
	m.leased[rank] = keep
	if len(keep) == 0 {
		m.drop(rank)
	}
	return args
}

// drop takes back everything rank holds.
func (m *leaseModel) drop(rank int) {
	delete(m.leased, rank)
	delete(m.tokens, rank)
	for part, o := range m.holds {
		if o == rank {
			delete(m.holds, part)
		}
	}
}

// matches holds the server's EpochState to the model: the same buckets done,
// the same buckets leased to the same ranks.
func (m *leaseModel) matches(t *testing.T, ls *dist.LockServer) bool {
	var es dist.EpochStateReply
	if err := ls.EpochState(dist.EpochStateArgs{}, &es); err != nil {
		t.Logf("EpochState: %v", err)
		return false
	}
	var done []partition.Bucket
	for _, b := range m.order {
		if m.done[b] {
			done = append(done, b)
		}
	}
	if len(es.Done) != len(done) || (len(done) > 0 && !reflect.DeepEqual(es.Done, done)) {
		t.Logf("server done %v, model %v", es.Done, done)
		return false
	}
	leases := map[int][]partition.Bucket{}
	for _, l := range es.Leases {
		leases[l.Rank] = append(leases[l.Rank], l.Bucket)
	}
	if len(leases) != len(m.leased) {
		t.Logf("server leases %v, model %v", leases, m.leased)
		return false
	}
	for rank, bs := range m.leased {
		if !reflect.DeepEqual(leases[rank], bs) {
			t.Logf("rank %d: server leases %v, model %v", rank, leases[rank], bs)
			return false
		}
	}
	return true
}

// Property: buckets leased one to a rank and released whole never overlap,
// regardless of the acquire/release interleaving driven by arbitrary byte
// input.
func TestSchedulerNeverOverlapsProperty(t *testing.T) {
	f := func(pRaw uint8, script []byte) bool {
		p := int(pRaw)%6 + 2
		ls, order := lockServer(t, p)
		m := newLeaseModel(order)
		var held []int // ranks, each leasing one bucket
		nextRank := 0
		locked := map[int]int{}
		for _, op := range script {
			if op%2 == 0 || len(held) == 0 {
				rep, asked, ok := m.acquire(t, ls, nextRank)
				if !ok {
					return false
				}
				if rep.Done {
					break
				}
				if !asked || !rep.Granted {
					continue
				}
				for _, part := range rep.Bucket.Parts() {
					locked[part]++
					if locked[part] > 1 {
						return false
					}
				}
				held = append(held, nextRank)
				nextRank++
			} else {
				rank := held[len(held)-1]
				held = held[:len(held)-1]
				b := m.leased[rank][0]
				for _, part := range b.Parts() {
					locked[part]--
				}
				if err := ls.ReleaseBucket(m.release(rank, b.Parts(), []partition.Bucket{b}), &dist.Ack{}); err != nil {
					t.Logf("rank %d release %v: %v", rank, b, err)
					return false
				}
			}
			if !m.matches(t, ls) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ranked owners keep their locks from one bucket to the next, and
// under any interleaving of acquires, "store one partition" releases,
// abandons and single-bucket leases of short-lived ranks, the lock server
// grants what the model's lock table allows, rank for rank: no partition is
// ever locked by two ranks, a rank is only granted buckets over partitions
// that are free or its own, a partition given up is free at once — before
// the buckets that touched it commit — and whatever ends a lease leaves no
// lock behind.
func TestSchedulerRankedOwnersProperty(t *testing.T) {
	const ranks = 3
	f := func(pRaw uint8, script []byte) bool {
		p := int(pRaw)%5 + 2
		ls, order := lockServer(t, p)
		m := newLeaseModel(order)
		var single []int // short-lived ranks, each leasing one bucket
		nextSingle := ranks
		for _, op := range script {
			rank := int(op>>3) % ranks
			switch op % 8 {
			case 0, 1, 2:
				rep, _, ok := m.acquire(t, ls, rank)
				if !ok {
					return false
				}
				if rep.Done {
					return true
				}
			case 3, 4:
				// The rank stores one partition: it is free at once, and the
				// buckets neither of whose partitions the rank still holds
				// commit.
				if len(m.leased[rank]) == 0 {
					continue
				}
				var parts []int
				for part := 0; part < p; part++ {
					if o, ok := m.holds[part]; ok && o == rank {
						parts = []int{part}
						break
					}
				}
				var commit []partition.Bucket
				for _, b := range m.leased[rank] {
					o1, held1 := m.holds[b.P1]
					o2, held2 := m.holds[b.P2]
					stillHeld := func(part int) bool { return len(parts) == 0 || part != parts[0] }
					if !(held1 && o1 == rank && stillHeld(b.P1)) && !(held2 && o2 == rank && stillHeld(b.P2)) {
						commit = append(commit, b)
					}
				}
				args := m.release(rank, parts, commit)
				if err := ls.ReleaseBucket(args, &dist.Ack{}); err != nil {
					t.Logf("rank %d release %+v: %v", rank, args, err)
					return false
				}
			case 5:
				if len(m.leased[rank]) == 0 {
					continue
				}
				if err := ls.AbandonBucket(dist.ReleaseArgs{Epoch: 2, Rank: rank, Token: m.tokens[rank]}, &dist.Ack{}); err != nil {
					t.Logf("rank %d abandon: %v", rank, err)
					return false
				}
				m.drop(rank)
			case 6:
				rep, _, ok := m.acquire(t, ls, nextSingle)
				if !ok {
					return false
				}
				if rep.Done {
					return true
				}
				if rep.Granted {
					single = append(single, nextSingle)
					nextSingle++
				}
			case 7:
				if len(single) == 0 {
					continue
				}
				r := single[len(single)-1]
				single = single[:len(single)-1]
				if rank == 0 {
					if err := ls.AbandonBucket(dist.ReleaseArgs{Epoch: 2, Rank: r, Token: m.tokens[r]}, &dist.Ack{}); err != nil {
						t.Logf("rank %d abandon: %v", r, err)
						return false
					}
					m.drop(r)
					continue
				}
				b := m.leased[r][0]
				if err := ls.ReleaseBucket(m.release(r, b.Parts(), []partition.Bucket{b}), &dist.Ack{}); err != nil {
					t.Logf("rank %d release %v: %v", r, b, err)
					return false
				}
			}
			if !m.matches(t, ls) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerRankKeepsItsPartitions walks one lease table by hand: a
// rank's own partitions do not block its next grant, another rank's do, a
// partition its rank reports stored is free at once, and a commit marks a
// bucket done without touching anyone's locks.
func TestSchedulerRankKeepsItsPartitions(t *testing.T) {
	ls, order := lockServer(t, 3) // (0,0) (0,1) (1,1) (1,0) (0,2) …
	if order[4] != (partition.Bucket{P1: 0, P2: 2}) {
		t.Fatalf("inside-out 3×3 order %v, want (0,2) fifth", order)
	}
	tokens := map[int]uint64{}
	ask := func(rank int) dist.AcquireReply {
		t.Helper()
		var rep dist.AcquireReply
		if err := ls.AcquireBucket(dist.AcquireArgs{Epoch: 2, Rank: rank, Token: tokens[rank]}, &rep); err != nil {
			t.Fatalf("rank %d acquire: %v", rank, err)
		}
		if rep.Granted {
			tokens[rank] = rep.Token
		}
		return rep
	}
	want := func(rank int, b partition.Bucket) {
		t.Helper()
		if got := ask(rank); !got.Granted || got.Bucket != b {
			t.Fatalf("rank %d granted %v (granted %v), want %v", rank, got.Bucket, got.Granted, b)
		}
	}
	refused := func(rank int, why string) {
		t.Helper()
		if got := ask(rank); got.Granted {
			t.Fatalf("rank %d granted %v %s", rank, got.Bucket, why)
		}
	}
	release := func(rank int, parts []int, bs ...partition.Bucket) {
		t.Helper()
		args := dist.ReleaseArgs{Epoch: 2, Rank: rank, Token: tokens[rank], Buckets: bs, Parts: parts}
		if err := ls.ReleaseBucket(args, &dist.Ack{}); err != nil {
			t.Fatalf("rank %d release %v / %v: %v", rank, bs, parts, err)
		}
	}
	state := func() dist.EpochStateReply {
		t.Helper()
		var es dist.EpochStateReply
		if err := ls.EpochState(dist.EpochStateArgs{}, &es); err != nil {
			t.Fatal(err)
		}
		return es
	}

	want(0, partition.Bucket{P1: 0, P2: 0})
	want(0, partition.Bucket{P1: 0, P2: 1}) // over its own partition 0, nothing released
	want(0, partition.Bucket{P1: 1, P2: 1}) // both partitions its own beats one
	// Rank 1 can only have what touches neither 0 nor 1.
	want(1, partition.Bucket{P1: 2, P2: 2})
	refused(1, "over rank 0's partitions")
	// Rank 0 stores partition 0: free for rank 1 now, with (0,0) and (0,1)
	// still leased.
	release(0, []int{0})
	want(1, partition.Bucket{P1: 0, P2: 2})
	if es := state(); len(es.Leases) != 5 {
		t.Fatalf("leases = %+v, want 5", es.Leases)
	}
	// A commit marks done and leaves the locks alone: rank 0 still has 1,
	// rank 1 keeps the 0 it was just given, and 2.
	release(0, nil, partition.Bucket{P1: 0, P2: 0})
	if done := state().Done; len(done) != 1 || done[0] != (partition.Bucket{P1: 0, P2: 0}) {
		t.Fatalf("done = %v, want [(0,0)]", done)
	}
	refused(0, "over rank 1's partitions 0 and 2") // every pending bucket touches 0 or 2
	want(1, partition.Bucket{P1: 2, P2: 0})        // over its own 0 and 2
	refused(1, "over rank 0's partition 1")        // (1,0), (1,2) and (2,1) are left
}
