package dist

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"pbg/internal/obs"
	"pbg/internal/partition"
)

// acquireWait bounds how long one AcquireBucket call waits on the server for
// its answer to change. It only has to stay well under
// RetryPolicy.CallTimeout: a caller told "nothing yet" at the bound asks
// again at once.
const acquireWait = 2 * time.Second

// lease is one outstanding bucket grant.
type lease struct {
	bucket partition.Bucket
	token  uint64
	// trained is set when the holder asks for its next bucket: the bucket is
	// trained, not yet stored — leased still, and done only when the holder
	// reports both its partitions stored.
	trained bool
}

// holder is everything one rank has leased. A rank is granted its next
// bucket while it still holds the last one's partitions, so it can hold
// several leases: the one it is training and those it has trained and not
// yet stored. They live and die together — one deadline, renewed by any
// call the rank makes under its newest token.
type holder struct {
	token   uint64    // of the newest grant; what the rank's calls must carry
	expires time.Time // zero when the server runs without a TTL
	leases  []lease   // oldest first
}

func (h *holder) find(b partition.Bucket) int {
	for i, l := range h.leases {
		if l.bucket == b {
			return i
		}
	}
	return -1
}

// LockServer is the central bucket-leasing service of §4.2. It wraps
// partition.Scheduler — which locks partitions by rank and enforces the
// "established partitions" constraint — with epoch bookkeeping so
// independently-paced trainers stay in lockstep at epoch granularity: a
// trainer asking for buckets of an epoch the server has not started yet
// waits, and one asking for an already-superseded epoch is told that epoch
// is done.
//
// Bucket states: pending → leased → trained-not-stored → done. AcquireBucket
// leases a pending bucket to a rank on top of what the rank already holds,
// so a partition two consecutive buckets share never leaves the trainer
// (§4.2's acquire-before-release). The rank's next AcquireBucket marks its
// earlier leases trained; ReleaseBucket moves them to done — the rank names
// the buckets whose partitions it has both stored — and separately unlocks
// the partitions the rank no longer holds, the moment it says so. A rank
// that cannot be granted anything reachable from what it holds is told so
// at once and must store everything and let go before it may wait; a rank
// that holds nothing waits here, woken by whatever can change the answer.
// So no rank ever waits while holding a partition.
//
// Lease lifecycle: when built with WithLeaseTTL, a rank's leases carry one
// deadline and every grant a strictly-monotonic fencing token. Trainers
// extend the deadline with Heartbeat; a rank whose deadline passes loses all
// its leases — trained-not-stored ones included — lazily (on the next RPC
// of any kind, or when a waiter's timer reaches the deadline) and their
// buckets go back to pending for a live trainer. The token fences the
// zombie out: a late AcquireBucket, ReleaseBucket or Heartbeat is rejected
// with an ErrStaleLease error, and partition servers reject shard writes
// under superseded tokens (see PartitionServer), so two holders of the same
// bucket can never both commit it. Without a TTL the server keeps the
// original fail-stop model: a dead trainer's leases are never reclaimed and
// the epoch stalls.
type LockServer struct {
	mu sync.Mutex
	// cond wakes AcquireBucket waiters: broadcast on every release, abandon,
	// expiry, StartEpoch and close, and by a waiter's own timer.
	cond      *sync.Cond
	waiting   int // AcquireBucket calls asleep in waitLocked
	closed    bool
	order     []partition.Bucket
	sched     *partition.Scheduler
	epoch     int // 0 until the first StartEpoch
	ttl       time.Duration
	now       func() time.Time // test clock hook; called with mu held
	maxWait   time.Duration    // acquireWait; tests shorten it
	nextToken uint64
	holders   map[int]*holder // by rank; absent = holds nothing
	// released records the token each bucket was committed under this epoch,
	// so a ReleaseBucket retried after a lost reply succeeds idempotently
	// instead of erroring as "unleased".
	released map[partition.Bucket]uint64

	obs           *obs.Hub // nil unless WithLockObs
	expiries      *obs.Counter
	fencedRejects *obs.Counter
	leasesHeld    *obs.Gauge
}

// obsHub is where the server's transport publishes (see newServer).
func (ls *LockServer) obsHub() *obs.Hub { return ls.obs }

// LockOption configures a LockServer at construction.
type LockOption func(*LockServer)

// WithLeaseTTL enables lease expiry: grants carry deadline now+d, renewable
// via Heartbeat; expired leases are abandoned for re-leasing. d <= 0 keeps
// leases eternal.
func WithLeaseTTL(d time.Duration) LockOption {
	return func(ls *LockServer) { ls.ttl = d }
}

// WithLockObs publishes the server's lease metrics (expiries, fencing
// rejections, leases held) on h's registry instead of a private quiet hub.
func WithLockObs(h *obs.Hub) LockOption {
	return func(ls *LockServer) {
		if h == nil {
			return
		}
		ls.obs = h
		ls.bindMetrics(h.Reg)
	}
}

// WithRestoredEpoch resumes the server from a checkpoint cut: the current
// epoch is epoch with the done buckets already completed. From epoch 2 on
// every partition counts as established (epoch 1 trained them); a mid-first-
// epoch restore re-establishes only the partitions of done buckets.
func WithRestoredEpoch(epoch int, done []partition.Bucket) LockOption {
	return func(ls *LockServer) {
		if epoch <= 0 {
			return
		}
		ls.epoch = epoch
		ls.sched = partition.NewScheduler(ls.order, epoch >= 2)
		for _, b := range done {
			ls.sched.MarkDone(b)
		}
	}
}

// NewLockServer creates a lock server over the given bucket order. The first
// epoch starts when StartEpoch is called.
func NewLockServer(order []partition.Bucket, opts ...LockOption) *LockServer {
	ls := &LockServer{
		order:    append([]partition.Bucket(nil), order...),
		sched:    partition.NewScheduler(order, false),
		now:      time.Now,
		maxWait:  acquireWait,
		holders:  make(map[int]*holder),
		released: make(map[partition.Bucket]uint64),
	}
	ls.cond = sync.NewCond(&ls.mu)
	ls.bindMetrics(obs.NewQuietHub().Reg)
	for _, opt := range opts {
		opt(ls)
	}
	return ls
}

func (ls *LockServer) bindMetrics(reg *obs.Registry) {
	ls.expiries = reg.Counter("pbg_dist_lease_expiries_total")
	ls.fencedRejects = reg.Counter(`pbg_dist_fenced_rejects_total{server="lock"}`)
	ls.leasesHeld = reg.Gauge("pbg_dist_leases_held")
}

// close wakes every waiter and fails further AcquireBucket calls, so no
// handler goroutine outlives the deployment.
func (ls *LockServer) close() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.closed = true
	ls.cond.Broadcast()
}

// dropLocked takes everything rank holds back: its leases return to pending
// and its partition locks open. The rank's token goes stale with the record.
func (ls *LockServer) dropLocked(rank int) {
	delete(ls.holders, rank)
	ls.sched.AbandonRank(rank)
	ls.changedLocked()
}

// changedLocked republishes the lease count and wakes the waiters after
// anything that can change an AcquireBucket answer.
func (ls *LockServer) changedLocked() {
	n := 0
	for _, h := range ls.holders {
		n += len(h.leases)
	}
	ls.leasesHeld.Set(int64(n))
	ls.cond.Broadcast()
}

// renewLocked pushes h's deadline out one TTL.
func (ls *LockServer) renewLocked(h *holder) {
	if ls.ttl > 0 {
		h.expires = ls.now().Add(ls.ttl)
	}
}

// expireLocked lazily reclaims the leases of every rank whose deadline has
// passed. It runs at the start of every RPC and whenever a waiter wakes, so
// expiry needs no background sweeper and a paused test clock makes it fully
// deterministic. Note the dead holder may still have the partitions checked
// out in its memory — that is exactly what the fencing tokens exist for.
func (ls *LockServer) expireLocked() {
	if ls.ttl <= 0 {
		return
	}
	now := ls.now()
	for rank, h := range ls.holders {
		if now.After(h.expires) {
			ls.expiries.Add(int64(len(h.leases)))
			ls.dropLocked(rank)
		}
	}
}

// waitLocked sleeps until the next broadcast, the earliest lease deadline or
// until, whichever comes first. mu is held on entry and on return.
func (ls *LockServer) waitLocked(until time.Time) {
	if ls.ttl > 0 {
		for _, h := range ls.holders {
			// A millisecond past the deadline: expiry is strict.
			if d := h.expires.Add(time.Millisecond); d.Before(until) {
				until = d
			}
		}
	}
	// The timer takes mu before it broadcasts, so it cannot fire into the
	// gap between arming it and Wait releasing mu.
	timer := time.AfterFunc(until.Sub(ls.now()), func() {
		ls.mu.Lock()
		ls.cond.Broadcast()
		ls.mu.Unlock()
	})
	ls.waiting++
	ls.cond.Wait()
	ls.waiting--
	timer.Stop()
}

// StartEpoch begins epoch args.Epoch, which must be the one after the
// current: all buckets become pending again; the set of initialised
// partitions is retained, so from the second epoch on the
// two-uninitialised-partitions rule no longer throttles parallelism. A
// repeat for the current epoch is answered with it and changes nothing.
func (ls *LockServer) StartEpoch(args StartEpochArgs, reply *StartEpochReply) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.expireLocked()
	switch {
	case args.Epoch == ls.epoch && ls.epoch > 0:
	case args.Epoch == ls.epoch+1:
		if len(ls.holders) > 0 {
			return fmt.Errorf("dist: StartEpoch with %d ranks still holding leases", len(ls.holders))
		}
		if ls.epoch > 0 {
			ls.sched.Reset()
		}
		ls.epoch++
		ls.released = make(map[partition.Bucket]uint64)
		ls.cond.Broadcast()
	default:
		return fmt.Errorf("dist: StartEpoch for epoch %d, server at %d", args.Epoch, ls.epoch)
	}
	reply.Epoch = ls.epoch
	reply.Pending = ls.sched.Remaining()
	return nil
}

// AcquireBucket leases the next bucket of args.Epoch reachable from what
// the rank holds. A rank that holds leases is answered at once; one that
// holds nothing waits (up to acquireWait) for a grant or for the epoch to
// finish.
func (ls *LockServer) AcquireBucket(args AcquireArgs, reply *AcquireReply) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	deadline := ls.now().Add(ls.maxWait)
	for {
		ls.expireLocked()
		if ls.closed {
			return fmt.Errorf("dist: lock server shut down")
		}
		h := ls.holders[args.Rank]
		switch {
		case h == nil && args.Token != 0:
			ls.fencedRejects.Inc()
			return fmt.Errorf("%w: acquire by rank %d under token %d (its leases expired)", ErrStaleLease, args.Rank, args.Token)
		case h != nil && args.Token != h.token:
			// The rank is behind the server by at most the one grant whose
			// reply it never saw: that grant is made again. Anything else is a
			// zombie — or, under token 0, a process that has forgotten what it
			// held, whose leases go back.
			newest := h.leases[len(h.leases)-1]
			switch {
			case args.Token < h.token && !newest.trained && (args.Token != 0 || len(h.leases) == 1):
				ls.renewLocked(h)
				ls.grantReply(reply, newest)
				return nil
			case args.Token == 0:
				ls.dropLocked(args.Rank)
				h = nil
			default:
				ls.fencedRejects.Inc()
				return fmt.Errorf("%w: acquire by rank %d under token %d, its newest is %d", ErrStaleLease, args.Rank, args.Token, h.token)
			}
		}
		switch {
		case args.Epoch < ls.epoch:
			// The server has moved on; the requested epoch is complete.
			reply.Done = true
			return nil
		case args.Epoch == ls.epoch:
			if h != nil {
				for i := range h.leases {
					h.leases[i].trained = true
				}
			}
			b, ok, done := ls.sched.AcquireFor(args.Rank)
			if done {
				reply.Done = true
				return nil
			}
			if ok {
				if h == nil {
					h = &holder{}
					ls.holders[args.Rank] = h
				}
				ls.nextToken++
				l := lease{bucket: b, token: ls.nextToken}
				h.leases = append(h.leases, l)
				h.token = l.token
				ls.renewLocked(h)
				ls.changedLocked()
				ls.grantReply(reply, l)
				return nil
			}
			if h != nil {
				// Nothing reachable from what the rank holds: it must let go
				// before it may wait, or two ranks could wait on each other.
				ls.renewLocked(h)
				return nil
			}
		}
		// Epoch not started, or every pending bucket is blocked by another
		// rank's partitions: wait for that to change.
		if !ls.now().Before(deadline) {
			return nil
		}
		ls.waitLocked(deadline)
	}
}

func (ls *LockServer) grantReply(reply *AcquireReply, l lease) {
	reply.Granted = true
	reply.Bucket = l.bucket
	reply.Token = l.token
	reply.TTL = ls.ttl
}

// Heartbeat extends every lease of args.Rank to now+TTL. A heartbeat from a
// rank whose leases have expired is rejected with an ErrStaleLease error,
// telling the (slow or partitioned) holder it must abandon what it holds.
// The heartbeat runs beside the training goroutine's AcquireBucket, so it
// may carry the token that call has just superseded; any token the rank has
// held under its current record is as good.
func (ls *LockServer) Heartbeat(args HeartbeatArgs, reply *Ack) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.expireLocked()
	h := ls.holders[args.Rank]
	if h == nil || args.Token == 0 || args.Token > h.token {
		ls.fencedRejects.Inc()
		return fmt.Errorf("%w: heartbeat by rank %d under token %d (expired or re-granted)", ErrStaleLease, args.Rank, args.Token)
	}
	if args.Epoch != ls.epoch {
		return fmt.Errorf("%w: heartbeat by rank %d for epoch %d, server at %d", ErrStaleLease, args.Rank, args.Epoch, ls.epoch)
	}
	ls.renewLocked(h)
	return nil
}

// ReleaseBucket commits args.Buckets — marked done for this epoch, their
// partitions established — and unlocks args.Parts for other trainers,
// whether or not the buckets that touched them have committed. The call is
// idempotent under its token, so a retried release after a lost reply
// succeeds; a release under a superseded token is rejected, and a rejected
// release changes nothing.
func (ls *LockServer) ReleaseBucket(args ReleaseArgs, reply *Ack) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.expireLocked()
	// landed reports a bucket this very call has already committed.
	landed := func(b partition.Bucket) bool { return args.Token != 0 && ls.released[b] == args.Token }
	h := ls.holders[args.Rank]
	if h == nil || args.Token != h.token {
		duplicate := len(args.Buckets) > 0
		for _, b := range args.Buckets {
			duplicate = duplicate && landed(b)
		}
		if duplicate {
			return nil // a release that already landed, retried
		}
		if h == nil && args.Token == 0 {
			return fmt.Errorf("dist: release of unleased buckets %v by rank %d", args.Buckets, args.Rank)
		}
		ls.fencedRejects.Inc()
		return fmt.Errorf("%w: release of %v by rank %d under token %d (leases expired or re-granted)", ErrStaleLease, args.Buckets, args.Rank, args.Token)
	}
	if args.Epoch != ls.epoch {
		return fmt.Errorf("dist: release of %v for epoch %d, server at %d", args.Buckets, args.Epoch, ls.epoch)
	}
	for _, b := range args.Buckets {
		if h.find(b) < 0 && !landed(b) {
			return fmt.Errorf("dist: rank %d releasing bucket %v it does not hold", args.Rank, b)
		}
	}
	for _, b := range args.Buckets {
		if i := h.find(b); i >= 0 {
			h.leases = append(h.leases[:i], h.leases[i+1:]...)
			ls.released[b] = args.Token
			ls.sched.Commit(b)
		}
	}
	ls.sched.Unlock(args.Rank, args.Parts...)
	if len(h.leases) == 0 {
		// Nothing leased means nothing held; drop any lock the rank did not
		// name, with its record.
		ls.dropLocked(args.Rank)
		return nil
	}
	ls.renewLocked(h)
	ls.changedLocked()
	return nil
}

// AbandonBucket returns every lease and partition args.Rank holds without
// marking anything done (trainer failure); other trainers will pick the
// buckets up. Abandoning leases that have already expired is a success —
// the buckets are back in the pool either way — and an abandon under a
// superseded token leaves the rank's newer leases alone.
func (ls *LockServer) AbandonBucket(args ReleaseArgs, reply *Ack) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.expireLocked()
	h := ls.holders[args.Rank]
	if h == nil {
		if args.Token != 0 {
			return nil // expired and already abandoned server-side
		}
		return fmt.Errorf("dist: abandon by rank %d, which holds no lease", args.Rank)
	}
	if args.Token != 0 && args.Token != h.token {
		return nil
	}
	ls.dropLocked(args.Rank)
	return nil
}

// EpochState snapshots epoch progress for checkpointing: the current epoch,
// the buckets committed so far in it, and the lease table in grant order. Trained-not-stored buckets are leases, not done: a resume
// from this cut retrains them.
func (ls *LockServer) EpochState(args EpochStateArgs, reply *EpochStateReply) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.expireLocked()
	reply.Epoch = ls.epoch
	reply.Done = ls.sched.DoneBuckets()
	for rank, h := range ls.holders {
		for _, l := range h.leases {
			reply.Leases = append(reply.Leases, LeaseInfo{
				Rank: rank, Bucket: l.bucket, Token: l.token, Deadline: h.expires, Uncommitted: l.trained,
			})
		}
	}
	sort.Slice(reply.Leases, func(i, j int) bool { return reply.Leases[i].Token < reply.Leases[j].Token })
	return nil
}
