package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"

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

// The method table: ids are what crosses the wire, names what chaos rules,
// metrics and error messages say. Outside the package, pbg node starts
// epochs and reads the lease table, and a caller reads a relation block off
// a parameter server.
var (
	MethodStartEpoch = wire.Method{ID: 1, Name: "LockServer.StartEpoch", MaxReq: maxControl, MaxReply: maxControl}
	methodAcquire    = wire.Method{ID: 2, Name: "LockServer.AcquireBucket", MaxReq: maxControl, MaxReply: maxControl}
	methodHeartbeat  = wire.Method{ID: 3, Name: "LockServer.Heartbeat", MaxReq: maxControl, MaxReply: maxControl}
	methodRelease    = wire.Method{ID: 4, Name: "LockServer.ReleaseBucket", MaxReq: maxControl, MaxReply: maxControl}
	methodAbandon    = wire.Method{ID: 5, Name: "LockServer.AbandonBucket", MaxReq: maxControl, MaxReply: maxControl}
	MethodEpochState = wire.Method{ID: 6, Name: "LockServer.EpochState", MaxReq: maxControl, MaxReply: maxBlock}
	methodGet        = wire.Method{ID: 16, Name: "PartitionServer.Get", MaxReq: maxControl, MaxReply: wire.MaxPayload}
	methodPut        = wire.Method{ID: 17, Name: "PartitionServer.Put", MaxReq: wire.MaxPayload, MaxReply: maxControl}
	methodFlush      = wire.Method{ID: 18, Name: "PartitionServer.Flush", MaxReq: maxControl, MaxReply: maxControl}
	methodInitRel    = wire.Method{ID: 32, Name: "ParamServer.InitRel", MaxReq: maxBlock, MaxReply: maxBlock}
	methodSync       = wire.Method{ID: 33, Name: "ParamServer.Sync", MaxReq: maxBlock, MaxReply: maxBlock}
	MethodPull       = wire.Method{ID: 34, Name: "ParamServer.Pull", MaxReq: maxControl, MaxReply: maxBlock}
)

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

// newServer builds the wire server for receivers, each a lock, partition
// or parameter server. Its transport metrics and server-side spans go to the
// hub of whichever receiver has one.
func newServer(receivers ...any) (*wire.Server, error) {
	var hub *obs.Hub
	for _, r := range receivers {
		if h, ok := r.(interface{ obsHub() *obs.Hub }); ok && h.obsHub() != nil {
			hub = h.obsHub()
		}
	}
	srv := wire.NewServer(hub, "dist")
	srv.Classify = errorStatus
	for _, r := range receivers {
		switch s := r.(type) {
		case lockService:
			srv.Handle(MethodStartEpoch, wire.Handler(s.StartEpoch, nil))
			srv.Handle(methodAcquire, wire.Handler(s.AcquireBucket, nil))
			srv.Handle(methodHeartbeat, wire.Handler(s.Heartbeat, nil))
			srv.Handle(methodRelease, wire.Handler(s.ReleaseBucket, nil))
			srv.Handle(methodAbandon, wire.Handler(s.AbandonBucket, nil))
			srv.Handle(MethodEpochState, wire.Handler(s.EpochState, nil))
		case partitionService:
			put := methodPut
			put.MaxReq = s.maxPutBytes()
			srv.Handle(methodGet, wire.Handler(s.Get, nil))
			srv.Handle(put, wire.Handler(s.Put, func(a *PutArgs) { a.alloc = s.imageBuf }))
			srv.Handle(methodFlush, wire.Handler(s.Flush, nil))
		case paramService:
			srv.Handle(methodInitRel, wire.Handler(s.InitRel, nil))
			srv.Handle(methodSync, wire.Handler(s.Sync, nil))
			srv.Handle(MethodPull, wire.Handler(s.Pull, nil))
		default:
			return nil, fmt.Errorf("dist: %T is not a lock, partition or parameter server", r)
		}
	}
	return srv, nil
}

// ListenAndServe serves receivers (see newServer) on addr until the returned
// listener is closed; connections already accepted live until their client
// hangs up.
func ListenAndServe(addr string, receivers ...any) (net.Listener, error) {
	srv, err := newServer(receivers...)
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
func serve(receivers ...any) (net.Listener, string, error) {
	l, err := ListenAndServe("127.0.0.1:0", receivers...)
	if err != nil {
		return nil, "", err
	}
	return l, l.Addr().String(), nil
}

// Call makes one call of method m to the server at addr over a connection
// of its own, with the default retry policy. args and reply are pointers to
// the method's messages.
func Call(addr string, m *wire.Method, args, reply any) error {
	rc, err := dialRetry("server", addr, RetryPolicy{}, nil, "")
	if err != nil {
		return err
	}
	defer rc.Close()
	return rc.Call(m, args, reply)
}

// --- Message encodings: each flat message is its walk over wire.Fields,
// its fields listed once in wire order: its encoder and its decoder ---

func bucketFields(b *partition.Bucket, f *wire.Fields) { f.Int(&b.P1); f.Int(&b.P2) }

func (a *StartEpochArgs) Fields(f *wire.Fields) { f.Int(&a.Epoch) }

func (r *StartEpochReply) Fields(f *wire.Fields) { f.Int(&r.Epoch); f.Int(&r.Pending) }

func (a *AcquireArgs) Fields(f *wire.Fields) { f.Int(&a.Epoch); f.Int(&a.Rank); f.Uint64(&a.Token) }

func (a *HeartbeatArgs) Fields(f *wire.Fields) { (*AcquireArgs)(a).Fields(f) }

func (r *AcquireReply) Fields(f *wire.Fields) {
	f.Bool(&r.Granted)
	bucketFields(&r.Bucket, f)
	f.Bool(&r.Done)
	f.Uint64(&r.Token)
	f.Int64((*int64)(&r.TTL))
}

func (a *ReleaseArgs) Fields(f *wire.Fields) {
	f.Int(&a.Epoch)
	f.Int(&a.Rank)
	f.Uint64(&a.Token)
	wire.Slice(f, &a.Buckets, 16, 0, bucketFields)
	wire.Slice(f, &a.Parts, 8, 0, func(p *int, f *wire.Fields) { f.Int(p) })
}

// A zero deadline (a server without a TTL) crosses as 0 (wire.Fields.Time).
func (l *LeaseInfo) fields(f *wire.Fields) {
	f.Int(&l.Rank)
	bucketFields(&l.Bucket, f)
	f.Uint64(&l.Token)
	f.Time(&l.Deadline)
	f.Bool(&l.Uncommitted)
}

func (r *EpochStateReply) Fields(f *wire.Fields) {
	f.Int(&r.Epoch)
	wire.Slice(f, &r.Done, 16, 0, bucketFields)
	wire.Slice(f, &r.Leases, 8+16+8+8+1, 0, (*LeaseInfo).fields)
}

func (a *GetArgs) Fields(f *wire.Fields) {
	f.Int(&a.TypeIndex)
	f.Int(&a.Part)
	f.Int(&a.Count)
	f.Int(&a.Dim)
	f.Float32(&a.InitScale)
	f.Uint64(&a.Token)
}

func (a *InitRelArgs) Fields(f *wire.Fields) { f.Int(&a.Rel); f.Floats(&a.Params) }

func (a *SyncArgs) Fields(f *wire.Fields) { f.Int(&a.Rel); f.Floats(&a.Delta) }

func (r *SyncReply) Fields(f *wire.Fields) { f.Floats(&r.Params); f.Int64(&r.Version) }

func (r *InitRelReply) Fields(f *wire.Fields) { (*SyncReply)(r).Fields(f) }

func (a *PullArgs) Fields(f *wire.Fields) { f.Int(&a.Rel) }

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
