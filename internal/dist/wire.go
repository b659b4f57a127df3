package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"time"

	"pbg/internal/obs"
	"pbg/internal/partition"
	"pbg/internal/storage"
	"pbg/internal/wire"
)

// Payload bounds. A server refuses a longer request before it reads or
// allocates any of it (wire.Server.admit); a client does the same for
// replies. Lock-server traffic is control messages; parameter blocks and the
// epoch-state snapshot (a done list of up to P² buckets) get the block
// bound; a Put is bounded per server by the largest shard image its schema
// admits (PartitionServer.maxPutBytes), and a Get reply is held by its
// reader to the exact size of the shard that was asked for.
const (
	maxControl = 64 << 10
	maxBlock   = 16 << 20
)

// The method table: ids are what crosses the wire, names what retryClient
// callers, chaos rules and error messages say.
var methods = []wire.Method{
	{ID: 1, Name: "LockServer.StartEpoch", MaxReq: maxControl, MaxReply: maxControl},
	{ID: 2, Name: "LockServer.AcquireBucket", MaxReq: maxControl, MaxReply: maxControl},
	{ID: 3, Name: "LockServer.Heartbeat", MaxReq: maxControl, MaxReply: maxControl},
	{ID: 4, Name: "LockServer.ReleaseBucket", MaxReq: maxControl, MaxReply: maxControl},
	{ID: 5, Name: "LockServer.AbandonBucket", MaxReq: maxControl, MaxReply: maxControl},
	{ID: 6, Name: "LockServer.EpochState", MaxReq: maxControl, MaxReply: maxBlock},
	{ID: 16, Name: "PartitionServer.Get", MaxReq: maxControl, MaxReply: wire.MaxPayload},
	{ID: 17, Name: "PartitionServer.Put", MaxReq: wire.MaxPayload, MaxReply: maxControl},
	{ID: 18, Name: "PartitionServer.Flush", MaxReq: maxControl, MaxReply: maxControl},
	{ID: 32, Name: "ParamServer.InitRel", MaxReq: maxBlock, MaxReply: maxBlock},
	{ID: 33, Name: "ParamServer.Sync", MaxReq: maxBlock, MaxReply: maxBlock},
	{ID: 34, Name: "ParamServer.Pull", MaxReq: maxControl, MaxReply: maxBlock},
}

var methodByName = func() map[string]*wire.Method {
	m := make(map[string]*wire.Method, len(methods))
	for i := range methods {
		m[methods[i].Name] = &methods[i]
	}
	return m
}()

// The three services, as the method sets a receiver must have. A receiver
// is dispatched through these, so a type that embeds a server and overrides
// a method (the recording servers of the tests) is served its override.
type (
	lockService interface {
		StartEpoch(StartEpochArgs, *StartEpochReply) error
		AcquireBucket(AcquireArgs, *AcquireReply) error
		Heartbeat(HeartbeatArgs, *Ack) error
		ReleaseBucket(ReleaseArgs, *Ack) error
		AbandonBucket(ReleaseArgs, *Ack) error
		EpochState(EpochStateArgs, *EpochStateReply) error
	}
	partitionService interface {
		Get(GetArgs, *ShardReply) error
		Put(PutArgs, *Ack) error
		Flush(FlushArgs, *Ack) error
		// The server's side of the swap's buffer cycle: the bound on a Put and
		// where its body is read into.
		maxPutBytes() int
		imageBuf(n int) []byte
	}
	paramService interface {
		InitRel(InitRelArgs, *InitRelReply) error
		Sync(SyncArgs, *SyncReply) error
		Pull(PullArgs, *SyncReply) error
	}
)

// newServer builds the wire server for receivers, keyed by service name
// ("LockServer", "PartitionServer", "ParamServer"). Its transport metrics
// and server-side spans go to the hub of whichever receiver has one.
func newServer(receivers map[string]any) (*wire.Server, error) {
	var hub *obs.Hub
	for _, r := range receivers {
		if h, ok := r.(interface{ obsHub() *obs.Hub }); ok && h.obsHub() != nil {
			hub = h.obsHub()
		}
	}
	srv := wire.NewServer(hub, "dist")
	srv.Classify = errorStatus
	for name, r := range receivers {
		var calls map[string]func() wire.Invocation
		maxPut := 0
		switch s := r.(type) {
		case lockService:
			calls = map[string]func() wire.Invocation{
				"StartEpoch":    wire.Handler(s.StartEpoch, nil),
				"AcquireBucket": wire.Handler(s.AcquireBucket, nil),
				"Heartbeat":     wire.Handler(s.Heartbeat, nil),
				"ReleaseBucket": wire.Handler(s.ReleaseBucket, nil),
				"AbandonBucket": wire.Handler(s.AbandonBucket, nil),
				"EpochState":    wire.Handler(s.EpochState, nil),
			}
		case partitionService:
			maxPut = s.maxPutBytes()
			calls = map[string]func() wire.Invocation{
				"Get":   wire.Handler(s.Get, nil),
				"Put":   wire.Handler(s.Put, func(a *PutArgs) { a.alloc = s.imageBuf }),
				"Flush": wire.Handler(s.Flush, nil),
			}
		case paramService:
			calls = map[string]func() wire.Invocation{
				"InitRel": wire.Handler(s.InitRel, nil),
				"Sync":    wire.Handler(s.Sync, nil),
				"Pull":    wire.Handler(s.Pull, nil),
			}
		default:
			return nil, fmt.Errorf("dist: %T is not a lock, partition or parameter server", r)
		}
		for call, newCall := range calls {
			m := methodByName[name+"."+call]
			if m == nil {
				return nil, fmt.Errorf("dist: %T served as %q, which has no method %s", r, name, call)
			}
			method := *m
			if call == "Put" {
				method.MaxReq = maxPut
			}
			srv.Handle(method, newCall)
		}
	}
	return srv, nil
}

// ListenAndServe serves receivers (see newServer) on addr until the returned
// listener is closed; connections already accepted live until their client
// hangs up.
func ListenAndServe(addr string, receivers map[string]any) (net.Listener, error) {
	srv, err := newServer(receivers)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(l)
	return l, nil
}

// serve is ListenAndServe on a fresh loopback port; it returns the bound
// address.
func serve(receivers map[string]any) (net.Listener, string, error) {
	l, err := ListenAndServe("127.0.0.1:0", receivers)
	if err != nil {
		return nil, "", err
	}
	return l, l.Addr().String(), nil
}

// Call makes one call to the server at addr over a connection of its own,
// with the default retry policy.
func Call(addr, method string, args, reply any) error {
	rc, err := dialRetry("server", addr, RetryPolicy{}, nil, "")
	if err != nil {
		return err
	}
	defer rc.Close()
	return rc.Call(method, args, reply)
}

// --- Message encodings (the flat shape of wire/codec.go unless noted) ---

func appendBucket(dst []byte, b partition.Bucket) []byte {
	return wire.AppendInt(wire.AppendInt(dst, b.P1), b.P2)
}

func parseBucket(d *wire.Dec) partition.Bucket {
	return partition.Bucket{P1: d.Int(), P2: d.Int()}
}

func appendBuckets(dst []byte, bs []partition.Bucket) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(bs)))
	for _, b := range bs {
		dst = appendBucket(dst, b)
	}
	return dst
}

func parseBuckets(d *wire.Dec) []partition.Bucket {
	n := d.Count(16)
	if n == 0 {
		return nil
	}
	out := make([]partition.Bucket, n)
	for i := range out {
		out[i] = parseBucket(d)
	}
	return out
}

func (a StartEpochArgs) AppendWire(dst []byte) []byte { return wire.AppendInt(dst, a.Epoch) }

func (a *StartEpochArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Epoch = d.Int()
	return d.Done()
}

func (r StartEpochReply) AppendWire(dst []byte) []byte {
	return wire.AppendInt(wire.AppendInt(dst, r.Epoch), r.Pending)
}

func (r *StartEpochReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Epoch, r.Pending = d.Int(), d.Int()
	return d.Done()
}

func (a AcquireArgs) AppendWire(dst []byte) []byte {
	dst = wire.AppendInt(wire.AppendInt(dst, a.Epoch), a.Rank)
	return binary.LittleEndian.AppendUint64(dst, a.Token)
}

func (a *AcquireArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Epoch, a.Rank, a.Token = d.Int(), d.Int(), d.Uint64()
	return d.Done()
}

func (r AcquireReply) AppendWire(dst []byte) []byte {
	dst = appendBucket(wire.AppendBool(dst, r.Granted), r.Bucket)
	dst = binary.LittleEndian.AppendUint64(wire.AppendBool(dst, r.Done), r.Token)
	return wire.AppendInt64(dst, int64(r.TTL))
}

func (r *AcquireReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Granted, r.Bucket, r.Done, r.Token, r.TTL = d.Bool(), parseBucket(d), d.Bool(), d.Uint64(), time.Duration(d.Int64())
	return d.Done()
}

func (a ReleaseArgs) AppendWire(dst []byte) []byte {
	dst = wire.AppendInt(wire.AppendInt(dst, a.Epoch), a.Rank)
	dst = appendBuckets(binary.LittleEndian.AppendUint64(dst, a.Token), a.Buckets)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Parts)))
	for _, p := range a.Parts {
		dst = wire.AppendInt(dst, p)
	}
	return dst
}

func (a *ReleaseArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Epoch, a.Rank, a.Token, a.Buckets = d.Int(), d.Int(), d.Uint64(), parseBuckets(d)
	a.Parts = nil
	if n := d.Count(8); n > 0 {
		a.Parts = make([]int, n)
		for i := range a.Parts {
			a.Parts[i] = d.Int()
		}
	}
	return d.Done()
}

func (a HeartbeatArgs) AppendWire(dst []byte) []byte {
	return AcquireArgs(a).AppendWire(dst)
}

func (a *HeartbeatArgs) ParseWire(b []byte) error { return (*AcquireArgs)(a).ParseWire(b) }

// A deadline crosses the wire as Unix nanoseconds, 0 for the zero time (a
// server without a TTL); the monotonic reading does not cross.
func (l LeaseInfo) appendWire(dst []byte) []byte {
	dst = appendBucket(wire.AppendInt(dst, l.Rank), l.Bucket)
	dst = binary.LittleEndian.AppendUint64(dst, l.Token)
	var ns int64
	if !l.Deadline.IsZero() {
		ns = l.Deadline.UnixNano()
	}
	return wire.AppendBool(wire.AppendInt64(dst, ns), l.Uncommitted)
}

const leaseInfoBytes = 8 + 16 + 8 + 8 + 1

func (r EpochStateReply) AppendWire(dst []byte) []byte {
	dst = appendBuckets(wire.AppendInt(dst, r.Epoch), r.Done)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Leases)))
	for _, l := range r.Leases {
		dst = l.appendWire(dst)
	}
	return dst
}

func (r *EpochStateReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Epoch, r.Done = d.Int(), parseBuckets(d)
	r.Leases = nil
	if n := d.Count(leaseInfoBytes); n > 0 {
		r.Leases = make([]LeaseInfo, n)
		for i := range r.Leases {
			l := &r.Leases[i]
			l.Rank, l.Bucket, l.Token = d.Int(), parseBucket(d), d.Uint64()
			if ns := d.Int64(); ns != 0 {
				l.Deadline = time.Unix(0, ns)
			}
			l.Uncommitted = d.Bool()
		}
	}
	return d.Done()
}

func (a GetArgs) AppendWire(dst []byte) []byte {
	dst = wire.AppendInt(wire.AppendInt(wire.AppendInt(wire.AppendInt(dst, a.TypeIndex), a.Part), a.Count), a.Dim)
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(a.InitScale))
	return binary.LittleEndian.AppendUint64(dst, a.Token)
}

func (a *GetArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.TypeIndex, a.Part, a.Count, a.Dim, a.InitScale, a.Token = d.Int(), d.Int(), d.Int(), d.Int(), d.Float32(), d.Uint64()
	return d.Done()
}

func (a InitRelArgs) AppendWire(dst []byte) []byte {
	return wire.AppendFloats(wire.AppendInt(dst, a.Rel), a.Params)
}

func (a *InitRelArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Rel, a.Params = d.Int(), d.Floats()
	return d.Done()
}

func (a SyncArgs) AppendWire(dst []byte) []byte { return InitRelArgs{a.Rel, a.Delta}.AppendWire(dst) }

func (a *SyncArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Rel, a.Delta = d.Int(), d.Floats()
	return d.Done()
}

func (r SyncReply) AppendWire(dst []byte) []byte {
	return wire.AppendInt64(wire.AppendFloats(dst, r.Params), r.Version)
}

func (r *SyncReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Params, r.Version = d.Floats(), d.Int64()
	return d.Done()
}

func (r InitRelReply) AppendWire(dst []byte) []byte {
	return SyncReply{r.Params, r.Version}.AppendWire(dst)
}

func (r *InitRelReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Params, r.Version = d.Floats(), d.Int64()
	return d.Done()
}

func (a PullArgs) AppendWire(dst []byte) []byte { return wire.AppendInt(dst, a.Rel) }

func (a *PullArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Rel = d.Int()
	return d.Done()
}

// --- The data plane: stream messages ---

// A Get reply is the shard image and nothing else; a Put request is the
// 8-byte fencing token followed by the image.
const putTokenBytes = 8

// shardHeaderBytes is the length of an fp32 image's header, all a stream
// reader needs in hand to pass the image through the layout gate.
var shardHeaderBytes = int(storage.Layout{Codec: storage.CodecFP32}.HeaderBytes())

// WireSize and WriteWire send the server's image as it is.
func (r *ShardReply) WireSize() int { return len(r.Shard) }

func (r *ShardReply) WriteWire(w io.Writer) error {
	_, err := w.Write(r.Shard)
	return err
}

// WireDone lets go of the image once the transport has written it.
func (r *ShardReply) WireDone() {
	if r.release != nil {
		r.release()
	}
}

// readImageFront reads the header of an n-byte fp32 shard image off r and
// passes it through the layout gate: what a stream reader knows before it
// decides where the rest goes.
func readImageFront(r io.Reader, n int) ([]byte, storage.Layout, error) {
	front := make([]byte, min(shardHeaderBytes, n))
	if _, err := io.ReadFull(r, front); err != nil {
		return nil, storage.Layout{}, err
	}
	l, err := imageLayout(front, int64(n))
	return front, l, err
}

// ReadWire reads the token, the image's header through the layout gate, and
// then the rest of the image into a buffer of the serving partition server's
// (a.alloc; make when there is none). The transport has already held n to
// the server's largest shard image.
func (a *PutArgs) ReadWire(r io.Reader, n int) error {
	tok := make([]byte, putTokenBytes)
	if n < len(tok) {
		return fmt.Errorf("dist: Put payload of %d bytes has no token", n)
	}
	if _, err := io.ReadFull(r, tok); err != nil {
		return err
	}
	a.Token = binary.LittleEndian.Uint64(tok)
	n -= len(tok)
	front, _, err := readImageFront(r, n)
	if err != nil {
		return err
	}
	alloc := a.alloc
	if alloc == nil {
		alloc = func(n int) []byte { return make([]byte, n) }
	}
	img := alloc(n)
	copy(img, front)
	if _, err := io.ReadFull(r, img[len(front):]); err != nil {
		return err
	}
	a.Shard, a.pooled = img, a.alloc != nil
	return nil
}

// shardOut is a trainer's Put request: the token, then sh's image streamed
// from the live shard's own memory (storage.Layout.EncodeTo).
type shardOut struct {
	sh    *storage.Shard
	token uint64
}

func (p shardOut) layout() storage.Layout { return storage.LayoutOf(p.sh, storage.CodecFP32) }

func (p shardOut) WireSize() int { return putTokenBytes + int(p.layout().Size()) }

func (p shardOut) WriteWire(w io.Writer) error {
	if _, err := w.Write(binary.LittleEndian.AppendUint64(nil, p.token)); err != nil {
		return err
	}
	return p.layout().EncodeTo(w, p.sh)
}

// shardIn is a trainer's Get reply: the image is checked against what was
// asked for from its header alone and its floats are then read straight off
// the connection into a shard — sh's buffers when the caller put a dead
// shard there and it is large enough, a fresh one otherwise.
type shardIn struct {
	want GetArgs
	sh   *storage.Shard
}

func (d *shardIn) ReadWire(r io.Reader, n int) error {
	_, l, err := readImageFront(r, n)
	if err == nil {
		err = checkReplyLayout(d.want, l)
	}
	if err != nil {
		return err
	}
	sh, err := l.DecodeInto(r, d.sh)
	if err != nil {
		return err
	}
	d.sh = sh
	return nil
}
