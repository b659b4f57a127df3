package dist

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"pbg/internal/partition"
	"pbg/internal/rng"
)

var updateLeases = flag.Bool("update-leases", false, "rewrite testdata/leases.golden from this build")

// TestLeaseReplayGolden replays scripted and seeded lease traffic — three
// ranks at P ∈ {2, 3, 4}, a fresh epoch 1, restores mid-epoch-1 and at
// epoch 2, lost replies, stale tokens, expiry on the fake clock, abandons
// and retried releases — against a lock server and compares every reply,
// and the EpochState after each call, with testdata/leases.golden byte for
// byte. The lock server's replies are its protocol: rewrite the file
// (-update-leases) only for a deliberate change to it.
func TestLeaseReplayGolden(t *testing.T) {
	var out bytes.Buffer
	for _, p := range []int{2, 3, 4} {
		inside := insideOutOrder(t, p)
		var rows []partition.Bucket
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				rows = append(rows, bk(i, j))
			}
		}
		newReplay(&out, fmt.Sprintf("fresh P=%d inside-out ttl", p), inside, 100*time.Millisecond).
			call("acquire before the epoch starts", func(r *replay) { r.acquire(0, 1, 0, true) }).
			start(1).walk(uint64(p), 100)
		newReplay(&out, fmt.Sprintf("restored mid-epoch 1 P=%d inside-out", p), inside, 0, WithRestoredEpoch(1, inside[:p])).
			walk(uint64(10+p), 60)
		newReplay(&out, fmt.Sprintf("restored epoch 2 P=%d row-major ttl", p), rows, 100*time.Millisecond, WithRestoredEpoch(2, nil)).
			walk(uint64(20+p), 60)
	}
	scriptedReplay(&out, insideOutOrder(t, 4))

	const path = "testdata/leases.golden"
	if *updateLeases {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(got), len(exp)); i++ {
		if got[i] != exp[i] {
			t.Fatalf("line %d differs from the golden replay:\n got  %s\n want %s", i+1, got[i], exp[i])
		}
	}
	t.Fatalf("the replay has %d lines, the golden file %d", len(got), len(exp))
}

// scriptedReplay walks the protocol's edge cases in a fixed order at P=4.
func scriptedReplay(out *bytes.Buffer, order []partition.Bucket) {
	r := newReplay(out, "scripted P=4 inside-out ttl", order, 100*time.Millisecond)
	r.start(1)
	r.call("first grant", func(r *replay) { r.acquire(0, 1, 0, true) })
	r.call("establishment: nothing else starts", func(r *replay) { r.acquire(1, 1, 0, true) })
	r.call("abandon reopens the first bucket", func(r *replay) { r.abandon(0, r.ranks[0].token) })
	r.call("first grant again", func(r *replay) { r.acquire(1, 1, 0, true) })
	r.call("token 0 with one untrained lease re-grants", func(r *replay) { r.acquire(1, 1, 0, true) })
	r.call("lost reply", func(r *replay) { r.acquire(1, 1, r.ranks[1].token, false) })
	r.call("re-grant of the lost reply", func(r *replay) { r.acquire(1, 1, r.ranks[1].token, true) })
	r.call("release under a superseded token", func(r *replay) { r.release(1, r.ranks[1].prev, true, true) })
	r.call("carry", func(r *replay) { r.acquire(1, 1, r.ranks[1].token, true) })
	r.call("commit the carried", func(r *replay) { r.release(1, r.ranks[1].token, false, true) })
	r.call("retry of that release", func(r *replay) { r.retry(1) })
	r.call("second rank", func(r *replay) { r.acquire(2, 1, 0, true) })
	r.call("heartbeat", func(r *replay) { r.heartbeat(2, r.ranks[2].token) })
	r.call("heartbeat under a future token", func(r *replay) { r.heartbeat(2, r.ranks[2].token+9) })
	r.tick(80 * time.Millisecond)
	r.call("heartbeat renews", func(r *replay) { r.heartbeat(1, r.ranks[1].token) })
	r.tick(30 * time.Millisecond)
	r.call("rank 2 expired", func(r *replay) { r.acquire(2, 1, r.ranks[2].token, true) })
	r.call("start with a holder", func(r *replay) { r.start(2) })
	r.call("start two ahead", func(r *replay) { r.start(3) })
	r.call("abandon by a rank holding nothing", func(r *replay) { r.abandon(2, 0) })
	r.call("release by a rank holding nothing", func(r *replay) { r.release(2, 0, true, true) })
	r.call("carry again", func(r *replay) { r.acquire(1, 1, r.ranks[1].token, true) })
	r.call("token 0 with a chain drops it", func(r *replay) { r.acquire(1, 1, 0, true) })
	r.walk(99, 80)
}

// replayRank is what a well-behaved client of rank i believes it holds.
type replayRank struct {
	token, prev uint64
	leases      []partition.Bucket
	parts       map[int]bool
	last        *ReleaseArgs
}

func (rr *replayRank) forget() { *rr = replayRank{} }

type replay struct {
	ls     *LockServer
	clock  *fakeClock
	start0 time.Time
	out    *bytes.Buffer
	epoch  int
	ranks  [3]replayRank
	state  string
	total  int
}

func newReplay(out *bytes.Buffer, name string, order []partition.Bucket, ttl time.Duration, opts ...LockOption) *replay {
	ls := NewLockServer(order, append([]LockOption{WithLeaseTTL(ttl)}, opts...)...)
	clock := newFakeClock()
	withClock(ls, clock)
	ls.maxWait = 0
	fmt.Fprintf(out, "## %s\n", name)
	r := &replay{ls: ls, clock: clock, start0: clock.now(), out: out, total: len(order)}
	var es EpochStateReply
	_ = ls.EpochState(EpochStateArgs{}, &es) // never fails
	r.epoch = max(es.Epoch, 1)
	return r
}

// call runs one labelled step.
func (r *replay) call(label string, step func(r *replay)) *replay {
	fmt.Fprintf(r.out, "# %s\n", label)
	step(r)
	return r
}

// line writes one call, its reply and the server state after it ("=" when
// the state has not changed since the previous line).
func (r *replay) line(call, reply string) {
	var es EpochStateReply
	_ = r.ls.EpochState(EpochStateArgs{}, &es) // never fails
	var b strings.Builder
	fmt.Fprintf(&b, "e%d done%v leases[", es.Epoch, es.Done)
	for i, l := range es.Leases {
		if i > 0 {
			b.WriteByte(' ')
		}
		deadline := "-"
		if !l.Deadline.IsZero() {
			deadline = l.Deadline.Sub(r.start0).String()
		}
		fmt.Fprintf(&b, "r%d%v t%d %s", l.Rank, l.Bucket, l.Token, deadline)
		if l.Uncommitted {
			b.WriteByte('*')
		}
	}
	fmt.Fprintf(&b, "] held %d expired %d fenced %d", r.ls.leasesHeld.Value(), r.ls.expiries.Value(), r.ls.fencedRejects.Value())
	state := b.String()
	if state == r.state {
		state = "="
	} else {
		r.state = state
	}
	fmt.Fprintf(r.out, "%s -> %s | %s\n", call, reply, state)
}

func errReply(err error) string {
	if errors.Is(err, ErrStaleLease) {
		return "stale: " + err.Error()
	}
	return "error: " + err.Error()
}

func (r *replay) start(epoch int) *replay {
	var rep StartEpochReply
	if err := r.ls.StartEpoch(StartEpochArgs{Epoch: epoch}, &rep); err != nil {
		r.line(fmt.Sprintf("start e%d", epoch), errReply(err))
		return r
	}
	r.epoch = rep.Epoch
	r.line(fmt.Sprintf("start e%d", epoch), fmt.Sprintf("epoch %d pending %d", rep.Epoch, rep.Pending))
	return r
}

func (r *replay) tick(d time.Duration) {
	r.ls.mu.Lock()
	r.clock.advance(d)
	r.ls.mu.Unlock()
	r.line(fmt.Sprintf("tick %v", d), "ok")
}

// acquire asks for a bucket of epoch as rank under token; seen is false
// when the reply is lost on its way back, so the rank's belief stays as
// it was.
func (r *replay) acquire(rank, epoch int, token uint64, seen bool) {
	var rep AcquireReply
	err := r.ls.AcquireBucket(AcquireArgs{Epoch: epoch, Rank: rank, Token: token}, &rep)
	call := fmt.Sprintf("acquire r%d e%d t%d", rank, epoch, token)
	if !seen {
		call += " (reply lost)"
	}
	rr := &r.ranks[rank]
	switch {
	case err != nil:
		r.line(call, errReply(err))
		if seen && IsStaleLease(err) {
			rr.forget()
		}
		return
	case rep.Granted:
		r.line(call, fmt.Sprintf("grant %v t%d ttl %v", rep.Bucket, rep.Token, rep.TTL))
	case rep.Done:
		r.line(call, "done")
	default:
		r.line(call, "none")
	}
	if !seen || !rep.Granted {
		return
	}
	if token == 0 {
		rr.forget() // a process that asks under 0 holds nothing
	}
	if rep.Token != rr.token {
		rr.prev, rr.token = rr.token, rep.Token
		rr.leases = append(rr.leases, rep.Bucket)
	}
	if rr.parts == nil {
		rr.parts = map[int]bool{}
	}
	rr.parts[rep.Bucket.P1], rr.parts[rep.Bucket.P2] = true, true
}

// release reports rank's leases under token: all of them, or all but the
// newest (carry); with parts, it also unlocks every partition the rank
// holds that its remaining leases do not touch.
func (r *replay) release(rank int, token uint64, all, parts bool) {
	rr := &r.ranks[rank]
	args := ReleaseArgs{Epoch: r.epoch, Rank: rank, Token: token}
	keep := map[int]bool{}
	for i, b := range rr.leases {
		if !all && i == len(rr.leases)-1 {
			keep[b.P1], keep[b.P2] = true, true
			continue
		}
		args.Buckets = append(args.Buckets, b)
	}
	if parts {
		for p := 0; p < 8; p++ {
			if rr.parts[p] && !keep[p] {
				args.Parts = append(args.Parts, p)
			}
		}
	}
	rr.last = &args
	r.send(rank, args, token == rr.token)
}

// retry sends rank's last release again, as after a lost reply.
func (r *replay) retry(rank int) {
	if args := r.ranks[rank].last; args != nil {
		r.send(rank, *args, false)
	}
}

func (r *replay) send(rank int, args ReleaseArgs, own bool) {
	err := r.ls.ReleaseBucket(args, &Ack{})
	call := fmt.Sprintf("release r%d e%d t%d b%v p%v", rank, args.Epoch, args.Token, args.Buckets, args.Parts)
	rr := &r.ranks[rank]
	if err != nil {
		r.line(call, errReply(err))
		if IsStaleLease(err) && own {
			rr.forget()
		}
		return
	}
	r.line(call, "ok")
	if !own {
		return
	}
	var left []partition.Bucket
	for _, b := range rr.leases {
		gone := false
		for _, c := range args.Buckets {
			gone = gone || b == c
		}
		if !gone {
			left = append(left, b)
		}
	}
	rr.leases = left
	for _, p := range args.Parts {
		delete(rr.parts, p)
	}
	if len(left) == 0 {
		last := rr.last
		rr.forget()
		rr.last = last
	}
}

func (r *replay) heartbeat(rank int, token uint64) {
	err := r.ls.Heartbeat(HeartbeatArgs{Epoch: r.epoch, Rank: rank, Token: token}, &Ack{})
	call := fmt.Sprintf("heartbeat r%d e%d t%d", rank, r.epoch, token)
	if err != nil {
		r.line(call, errReply(err))
		return
	}
	r.line(call, "ok")
}

func (r *replay) abandon(rank int, token uint64) {
	err := r.ls.AbandonBucket(ReleaseArgs{Epoch: r.epoch, Rank: rank, Token: token}, &Ack{})
	call := fmt.Sprintf("abandon r%d e%d t%d", rank, r.epoch, token)
	if err != nil {
		r.line(call, errReply(err))
		return
	}
	r.line(call, "ok")
	if token == r.ranks[rank].token {
		r.ranks[rank].forget()
	}
}

// walk takes n seeded steps of mostly well-behaved traffic from three
// ranks, with lost replies, restarts, stale tokens and the clock mixed in.
func (r *replay) walk(seed uint64, n int) *replay {
	g := rng.New(seed)
	fmt.Fprintf(r.out, "# walk seed %d\n", seed)
	for i := 0; i < n; i++ {
		rank := g.Intn(3)
		rr := &r.ranks[rank]
		op := g.Intn(100)
		if rr.token == 0 && op >= 47 && op < 89 && op != 75 && op != 76 && op != 77 {
			op = 0 // a rank that holds nothing has nothing to release
		}
		switch {
		case op < 35:
			r.acquire(rank, r.epoch, rr.token, true)
		case op < 40:
			r.acquire(rank, r.epoch, rr.token, false)
		case op < 43:
			r.acquire(rank, r.epoch, 0, true)
		case op < 47:
			r.acquire(rank, r.epoch+2*g.Intn(2)-1, rr.token, true)
		case op < 67:
			r.release(rank, rr.token, false, true)
		case op < 75:
			r.release(rank, rr.token, true, true)
		case op < 78:
			r.retry(rank)
		case op < 81:
			r.release(rank, rr.prev, true, false)
		case op < 85:
			r.heartbeat(rank, rr.token)
		case op < 88:
			r.abandon(rank, rr.token)
		case op < 89:
			r.abandon(rank, rr.prev)
		case op < 95:
			r.tick(40 * time.Millisecond)
		case op < 97:
			r.tick(150 * time.Millisecond)
		default:
			r.start(r.epoch + 1)
		}
		var es EpochStateReply
		_ = r.ls.EpochState(EpochStateArgs{}, &es) // never fails
		if len(es.Done) == r.total && len(es.Leases) == 0 && g.Intn(2) == 0 {
			r.start(r.epoch + 1)
		}
	}
	return r
}
