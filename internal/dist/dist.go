// Package dist implements PBG's distributed execution mode (§4.2, Figure 2):
// a set of trainer machines cooperate on one epoch by leasing edge buckets
// with pairwise-disjoint partitions from a central lock server, exchanging
// embedding partitions (with their Adagrad state) through sharded in-memory
// partition servers, and keeping shared relation-operator parameters loosely
// in sync through an asynchronous parameter server.
//
// All components speak internal/wire's framed protocol over TCP (wire.go has
// the method table and each message's fields, listed once), so the same
// pieces assemble both the in-process Cluster harness (loopback sockets, used
// by TrainDistributed and the Tables 3–4 / Figure 6 benchmarks) and a real
// multi-host deployment via pbg node. A partition swap is the data plane:
// a Put streams the shard's own floats to the socket, the partition server
// keeps the image it read as the bytes it will answer the next Get with, and
// the Get reads them straight into a shard the trainer's checkout cache has
// just let go of — no intermediate copy, no fresh buffer per swap.
//
// The division of state follows the paper exactly:
//
//   - Edge buckets: every trainer holds the full edge list (a run
//     directory's train.edges on a shared filesystem); the LockServer, the
//     one lease table, decides who trains which bucket, enforcing
//     disjointness and the §4.1 "established partitions" constraint over the
//     bucket order internal/partition plans.
//   - Partitioned entity embeddings: owned by the PartitionServer shard that
//     the (entity type, partition) key hashes to; a trainer checks the two
//     partitions of its current bucket out and trains them locally with
//     HOGWILD workers. It is leased its next bucket while it still holds
//     them, keeps the partition the two buckets share and writes back only
//     the one they do not, so a partition leaves a trainer when no upcoming
//     bucket of that trainer needs it; at most one trainer ever holds a
//     partition, and a bucket is done once both its partitions have been
//     written back (LockServer has the states, Node.RunEpoch the loop). The
//     trainer's side of the swap is a storage.Cache — the same refcounts,
//     prefetch pool and memory budget a local DiskStore runs on — over a
//     backend of fenced Get/Put RPCs (store.go), built write-through because
//     the server's copy is the next holder's the moment the trainer lets the
//     partition go.
//   - Relation parameters: updated by every trainer concurrently, so they are
//     synchronised optimistically: a background goroutine pushes the local
//     delta since the last sync and pulls the global value every
//     SyncInterval, giving staleness bounded by that interval (§4.2's
//     asynchronous parameter server).
//
// Unpartitioned entity types are stored on the partition servers too (key
// (type, 0)); with more than one trainer their concurrent write-backs would
// be last-writer-wins, so NewCluster rejects unpartitioned types when
// Machines > 1 — distributed runs must partition every entity type, as the
// paper requires. (NewNode cannot check this: a single node does not know
// how many trainers the deployment has.)
package dist

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/wire"
)

// Fencing and lease-lifecycle rejections. ErrStaleLease marks lock-server
// rejections (the lease expired or was re-granted under a newer token);
// ErrFenced marks partition-server rejections of reads and writes carrying a
// token older than one the shard has already seen. Both mean the same thing
// to a trainer: it is a zombie for that bucket and must stop trying to commit
// it. A server wraps them (%w) into the error it returns; the class crosses
// the wire as the reply's status and the client rebuilds an error that
// errors.Is matches again, text preserved — an error that merely mentions
// one of these phrases is not of the class.
var (
	ErrStaleLease = errors.New("dist: stale lease")
	ErrFenced     = errors.New("dist: fenced write")
)

// errorClasses is how a class crosses the wire: the status its errors are
// sent under, and the sentinel a client's rebuilt error unwraps to.
var errorClasses = map[wire.Status]error{
	wire.StatusUser:     ErrStaleLease,
	wire.StatusUser + 1: ErrFenced,
}

// errorStatus is the wire.Server's Classify: the status a handler's error
// crosses the wire under.
func errorStatus(err error) wire.Status {
	for status, class := range errorClasses {
		if errors.Is(err, class) {
			return status
		}
	}
	return wire.StatusError
}

// serverError is an error a server returned, rebuilt on the client: the
// server's text, unwrapping to the class its status named (nil for an
// application error).
type serverError struct {
	class error
	msg   string
}

func (e *serverError) Error() string { return e.msg }
func (e *serverError) Unwrap() error { return e.class }

// fromServer turns a wire-level server error into a serverError; any other
// error passes through.
func fromServer(err error) error {
	var se *wire.ServerError
	if !errors.As(err, &se) {
		return err
	}
	return &serverError{class: errorClasses[se.Status], msg: se.Msg}
}

// IsStaleLease reports whether err is a lock-server stale-lease rejection
// (lease expired, re-granted, or heartbeated/released with an old token).
func IsStaleLease(err error) bool {
	return errors.Is(err, ErrStaleLease)
}

// IsFenced reports whether err means the caller has lost its write authority
// for a bucket — either a lock-server stale-lease rejection or a partition
// server refusing a shard write whose fencing token has been superseded.
func IsFenced(err error) bool {
	return errors.Is(err, ErrStaleLease) || errors.Is(err, ErrFenced)
}

// isTransientRPC classifies an RPC failure as retryable: connection-level
// trouble (dial failures, broken pipes, timeouts, the client shutting the
// connection down after an I/O error) is transient, while an error the
// server itself returned (serverError) is a definitive answer and must not
// be retried — retrying a stale-lease rejection would never succeed, and
// retrying an application error hides it.
func isTransientRPC(err error) bool {
	if err == nil {
		return false
	}
	var se *serverError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, wire.ErrShutdown) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, errCallTimeout) || errors.Is(err, errChaosDrop)
}

// SplitAddrs parses a comma-separated address list, returning nil for the
// empty string (so optional server lists can be passed straight from flags).
func SplitAddrs(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// serverIndex maps an (entity type, partition) key onto one of n servers.
// Every client must agree on this mapping, so it is fixed here.
func serverIndex(typeIndex, part, n int) int {
	return (typeIndex*7919 + part) % n
}

// RankSeed offsets a deployment-wide training seed for one trainer rank, so
// HOGWILD shuffles and negative samples differ across machines while staying
// deterministic. Cluster and pbg node both use it.
func RankSeed(seed uint64, rank int) uint64 {
	return seed + uint64(rank)*0x9E37
}

// Shards cross the wire as the image storage.Layout describes — the bytes
// a shard file holds — always fp32: a partition is swapped many times per
// epoch and re-quantizing it on every swap would stack rounding error.

// encodeShard is the wire form of sh.
func encodeShard(sh *storage.Shard) ([]byte, error) {
	return storage.LayoutOf(sh, storage.CodecFP32).Encode(sh)
}

// wireLayout passes a received shard payload through the storage bounds
// gate, on either end of the connection; l.Decode(b) then yields the shard.
func wireLayout(b []byte) (storage.Layout, error) {
	return imageLayout(b, int64(len(b)))
}

// imageLayout is the gate given only the front of a size-byte payload (at
// least its header), which is all a streaming reader has before it decides
// where the rest goes.
func imageLayout(front []byte, size int64) (storage.Layout, error) {
	l, err := storage.ParseLayout(front, size)
	if err != nil {
		return l, fmt.Errorf("dist: shard payload: %w", err)
	}
	if l.Codec != storage.CodecFP32 {
		return l, fmt.Errorf("dist: shard payload is %v, the wire carries fp32", l.Codec)
	}
	return l, nil
}

// --- Lock server wire types ---

// StartEpochArgs begins epoch Epoch on the lock server (called once per
// epoch, by rank 0 in multi-process deployments). Naming the epoch makes the
// call idempotent: a repeat for the epoch the server is already in — a retry
// after a lost reply — is answered with it and changes nothing.
type StartEpochArgs struct {
	Epoch int
}

// StartEpochReply reports the epoch the server is in (1-based) and how many
// of its buckets are still to be committed.
type StartEpochReply struct {
	Epoch   int
	Pending int
}

// AcquireArgs requests a bucket lease for the given epoch. Token is the
// newest fencing token the rank holds (0 when it holds nothing): it proves
// the rank's leases are still its own, and a grant the rank evidently never
// saw — the reply was lost — is answered again instead of a second one
// being made.
type AcquireArgs struct {
	Epoch int
	Rank  int
	Token uint64
}

// AcquireReply grants a bucket, declares the epoch finished, or neither. A
// caller that holds partitions is never made to wait: "neither" tells it
// that nothing is reachable from what it holds, and it must store them and
// let go (ReleaseBucket) before asking again. A caller that holds nothing
// has by then waited on the server for the answer to change, and asks again
// at once.
type AcquireReply struct {
	// Granted means Bucket is leased to the caller, on top of the leases and
	// partitions it already holds.
	Granted bool
	Bucket  partition.Bucket
	// Done means every bucket of the requested epoch has been committed (or
	// the server has already moved past that epoch).
	Done bool
	// Token fences the lease: it is strictly monotonic across all grants and
	// from here on it is the token the rank carries on every lock-server
	// call and stamps on every partition-server read and write, so a write
	// from a superseded lease can be rejected.
	Token uint64
	// TTL is the lease time-to-live the server enforces (0 = leases never
	// expire). A trainer must Heartbeat well within TTL or every lease it
	// holds goes back to the scheduler for re-leasing.
	TTL time.Duration
}

// ReleaseArgs reports what a rank has stored and let go of. Buckets are the
// leases to commit: trained, with the post-training bytes of both their
// partitions on the partition servers. Parts are the partitions the rank no
// longer holds, free for other trainers from here on whether or not the
// buckets that touched them have committed. Token must be the rank's newest
// fencing token; a stale one (its leases expired) is rejected with a
// ErrStaleLease error. AbandonBucket takes the same arguments and returns
// every lease and partition of the rank, uncommitted; Buckets and Parts are
// ignored there.
type ReleaseArgs struct {
	Epoch   int
	Rank    int
	Token   uint64
	Buckets []partition.Bucket
	Parts   []int
}

// HeartbeatArgs renews every lease of Rank: the server resets their shared
// deadline to now+TTL. A heartbeat from a rank whose leases have expired is
// rejected so a zombie trainer learns it has lost them.
type HeartbeatArgs struct {
	Epoch int
	Rank  int
	Token uint64
}

// EpochStateArgs asks the lock server for its current epoch progress.
type EpochStateArgs struct{ wire.Empty }

// EpochStateReply snapshots epoch progress for checkpointing and for
// diagnosis: the current epoch, the buckets committed in it, and the lease
// table.
type EpochStateReply struct {
	Epoch  int
	Done   []partition.Bucket
	Leases []LeaseInfo
}

// LeaseInfo is one outstanding lease. Uncommitted means the holder has
// trained the bucket and still carries one of its partitions: it is done
// only once both are stored.
type LeaseInfo struct {
	Rank        int
	Bucket      partition.Bucket
	Token       uint64
	Deadline    time.Time // zero when the server runs without a TTL
	Uncommitted bool
}

// Ack is an empty RPC reply.
type Ack struct{ wire.Empty }

// --- Partition server wire types ---

// GetArgs fetches one (entity type, partition) shard. InitScale seeds lazy
// initialisation the first time any trainer touches the shard; all trainers
// must pass the same value (it defaults to 1).
type GetArgs struct {
	TypeIndex int
	Part      int
	Count     int // rows the shard must have (from the schema)
	Dim       int
	InitScale float32
	// Token is the fencing token of the bucket lease this read serves (0 =
	// unfenced, e.g. an evaluation snapshot). A non-zero token advances the
	// shard's fence, after which writes under older tokens are rejected; a
	// read under an already-superseded token is itself rejected so a zombie
	// trainer fails before wasting a bucket of compute.
	Token uint64
}

// ShardReply carries one shard (see encodeShard). Shard is the server's own
// image, not a copy: it is valid until release is called — the transport
// does so once the reply is on the wire — and for good when it never is.
type ShardReply struct {
	Shard []byte

	release func()
}

// PutArgs stores a shard back, overwriting the server copy. Token fences the
// write (0 = unfenced): a Put whose token is older than the shard's fence is
// rejected, so a zombie trainer whose lease expired can never overwrite the
// re-leased holder's committed state. The server keeps Shard; the caller
// must not touch it afterwards.
type PutArgs struct {
	Shard []byte
	Token uint64

	// alloc, set by the serving side before the body is read, supplies the
	// buffer Shard is read into; pooled marks a Shard that came from it, which
	// the server may hand out again once it has been replaced.
	alloc  func(n int) []byte
	pooled bool
}

// FlushArgs asks a durable partition server to drain its write-behind queue
// so every shard accepted so far is on disk (checkpoint barrier). A no-op on
// memory-only servers.
type FlushArgs struct{ wire.Empty }

// --- Parameter server wire types ---

// InitRelArgs publishes a relation's initial parameter block. The first
// writer wins; every caller receives the canonical block back, so all
// trainers start from identical relation parameters.
type InitRelArgs struct {
	Rel    int
	Params []float32
}

// SyncArgs pushes the local parameter delta accumulated since the last sync.
type SyncArgs struct {
	Rel   int
	Delta []float32
}

// SyncReply returns the post-push global parameters and their version (the
// total number of pushes applied), letting clients observe staleness.
type SyncReply struct {
	Params  []float32
	Version int64
}

// PullArgs fetches a relation's current global parameters without pushing.
type PullArgs struct {
	Rel int
}
