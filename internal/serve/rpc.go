package serve

import (
	"fmt"
	"net"

	"pbg/internal/wire"
)

// The front end is internal/wire's framed transport on plain TCP — the one
// internal/dist runs on — with one goroutine per connection reading requests
// and one per request serving it. Request structs are wire types distinct
// from the engine types so the decode surface stays small and fully
// validated before any scoring happens: a frame's payload length is held to
// its method's bound before a byte of it is read (the method table below),
// each message lists its fields once (a wire.Fields walk, both its encoder
// and its parser, which allocates nothing the payload's own bytes do not
// back and holds a batch to rpcMaxBatch before allocating it), and Validate
// checks every field against the schema. FuzzServeFrame drives that surface
// and the reply walks with arbitrary bytes, FuzzTopKRequest a TopK frame's
// walk and Validate.

// rpcMaxBatch bounds requests per RPC batch: past protecting the server
// from absurd allocations, it keeps a single call's latency bounded so one
// giant batch can't starve the connection.
const rpcMaxBatch = 4096

// Payload bounds: a batch is at most maxBatchBytes on the wire, everything
// else is a control message.
const (
	maxBatchBytes   = 16 << 20
	maxControlBytes = 64 << 10
)

// The method table (ids are disjoint from internal/dist's, so a client
// pointed at the wrong kind of server is told "unknown method").
var (
	methodTopK   = wire.Method{ID: 64, Name: "Serve.TopK", MaxReq: maxBatchBytes, MaxReply: wire.MaxPayload}
	methodScore  = wire.Method{ID: 65, Name: "Serve.Score", MaxReq: maxBatchBytes, MaxReply: maxBatchBytes}
	methodRank   = wire.Method{ID: 66, Name: "Serve.Rank", MaxReq: maxControlBytes, MaxReply: maxControlBytes}
	methodReload = wire.Method{ID: 67, Name: "Serve.Reload", MaxReq: maxControlBytes, MaxReply: maxControlBytes}
	methodStats  = wire.Method{ID: 68, Name: "Serve.Stats", MaxReq: maxControlBytes, MaxReply: maxControlBytes}
)

// TopKArgs is the wire form of a TopK batch.
type TopKArgs struct {
	Reqs []TopKRequest
}

// Validate bounds-checks a decoded batch against the serving schema before
// any row is touched. Malformed input errors; it must never panic or cause
// an out-of-range read downstream.
func (a *TopKArgs) Validate(s *Server) error {
	if len(a.Reqs) == 0 {
		return fmt.Errorf("serve: empty topk batch")
	}
	for i := range a.Reqs {
		if a.Reqs[i].K > 1<<20 {
			return fmt.Errorf("serve: request %d: K %d exceeds limit", i, a.Reqs[i].K)
		}
	}
	return s.validateTopK(a.Reqs)
}

// TopKReply carries the batch results, aligned with TopKArgs.Reqs.
type TopKReply struct {
	Results []TopKResult
}

// ScoreArgs is the wire form of a Score batch.
type ScoreArgs struct {
	Reqs []ScoreRequest
}

// ScoreReply carries the scores, aligned with ScoreArgs.Reqs.
type ScoreReply struct {
	Scores []float32
}

// RankArgs asks for the eval-convention mid-rank of one edge.
type RankArgs struct {
	Rel      int
	Src, Dst int32
}

// RankReply carries the mid-rank.
type RankReply struct {
	Rank float64
}

// ReloadArgs triggers a hot reload. Empty Dir re-reads the directory the
// server already serves (pick up retrained shards / a rebuilt index).
type ReloadArgs struct {
	Dir string
}

// ReloadReply is empty; the call erroring is the signal.
type ReloadReply struct{ wire.Empty }

// StatsArgs requests a Stats snapshot.
type StatsArgs struct{ wire.Empty }

// StatsReply carries the snapshot.
type StatsReply struct {
	Stats Stats
}

// --- Message encodings: each message is its walk over wire.Fields, its
// fields listed once in wire order (the slices' minimum element sizes: a
// TopKRequest with an empty Vector is 33 bytes, a TopKResult with no ids 24,
// a ScoreRequest 16) ---

func (r *TopKRequest) fields(f *wire.Fields) {
	f.Int(&r.Rel)
	f.Int32(&r.SrcID)
	f.Floats(&r.Vector)
	f.Int(&r.K)
	f.Bool(&r.Exact)
	f.Int(&r.NProbe)
}

func (a *TopKArgs) Fields(f *wire.Fields) {
	wire.Slice(f, &a.Reqs, 33, rpcMaxBatch, (*TopKRequest).fields)
}

func (r *TopKResult) fields(f *wire.Fields) {
	f.Int32s(&r.IDs)
	f.Floats(&r.Scores)
	f.Int(&r.Scanned)
	f.Int(&r.Probed)
}

func (r *TopKReply) Fields(f *wire.Fields) { wire.Slice(f, &r.Results, 24, 0, (*TopKResult).fields) }

func (r *ScoreRequest) fields(f *wire.Fields) { f.Int(&r.Rel); f.Int32(&r.Src); f.Int32(&r.Dst) }

func (a *ScoreArgs) Fields(f *wire.Fields) {
	wire.Slice(f, &a.Reqs, 16, rpcMaxBatch, (*ScoreRequest).fields)
}

func (r *ScoreReply) Fields(f *wire.Fields) { f.Floats(&r.Scores) }

func (a *RankArgs) Fields(f *wire.Fields) { (*ScoreRequest)(a).fields(f) }

func (r *RankReply) Fields(f *wire.Fields) { f.Float64(&r.Rank) }

func (a *ReloadArgs) Fields(f *wire.Fields) { f.String(&a.Dir) }

func (r *StatsReply) Fields(f *wire.Fields) {
	st := &r.Stats
	f.String(&st.Dir)
	f.Int(&st.MappedShards)
	f.Int64(&st.MappedBytes)
	f.Bool(&st.HasIndex)
	f.Int64(&st.IndexBytes)
	f.Int(&st.IndexLists)
	f.Int64(&st.Requests)
}

// Service is the front end's receiver: one handler per method, each
// validating every argument before touching the engine.
type Service struct {
	s *Server
}

// TopK answers a batched top-K call.
func (sv *Service) TopK(args TopKArgs, reply *TopKReply) error {
	if err := args.Validate(sv.s); err != nil {
		return err
	}
	res, err := sv.s.TopK(args.Reqs)
	if err != nil {
		return err
	}
	reply.Results = res
	return nil
}

// Score answers a batched edge-score call.
func (sv *Service) Score(args ScoreArgs, reply *ScoreReply) error {
	if len(args.Reqs) == 0 {
		return fmt.Errorf("serve: empty score batch")
	}
	scores, err := sv.s.Score(args.Reqs)
	if err != nil {
		return err
	}
	reply.Scores = scores
	return nil
}

// Rank answers a single mid-rank call.
func (sv *Service) Rank(args RankArgs, reply *RankReply) error {
	r, err := sv.s.Rank(args.Rel, args.Src, args.Dst)
	if err != nil {
		return err
	}
	reply.Rank = r
	return nil
}

// Reload hot-swaps the checkpoint.
func (sv *Service) Reload(args ReloadArgs, _ *ReloadReply) error {
	return sv.s.Reload(args.Dir)
}

// Stats reports the serving footprint.
func (sv *Service) Stats(_ StatsArgs, reply *StatsReply) error {
	st, err := sv.s.Stats()
	if err != nil {
		return err
	}
	reply.Stats = st
	return nil
}

// newWireServer is the method table over s: what ListenAndServe serves and
// what FuzzServeFrame decodes through.
func newWireServer(s *Server) *wire.Server {
	sv := &Service{s: s}
	srv := wire.NewServer(s.cfg.Obs, "serve")
	srv.Handle(methodTopK, wire.Handler(sv.TopK, nil))
	srv.Handle(methodScore, wire.Handler(sv.Score, nil))
	srv.Handle(methodRank, wire.Handler(sv.Rank, nil))
	srv.Handle(methodReload, wire.Handler(sv.Reload, nil))
	srv.Handle(methodStats, wire.Handler(sv.Stats, nil))
	return srv
}

// RPCServer is a listening front end over one Server.
type RPCServer struct {
	ln net.Listener
}

// ListenAndServe exposes s on addr ("host:port"; ":0" picks a free port).
// It returns once the listener is bound; connections are served on
// background goroutines until Close. The transport's byte counters and
// queue-time histogram (pbg_wire_*) land in s's obs hub.
func ListenAndServe(addr string, s *Server) (*RPCServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go newWireServer(s).Serve(ln)
	return &RPCServer{ln: ln}, nil
}

// Addr returns the bound listen address.
func (r *RPCServer) Addr() string { return r.ln.Addr().String() }

// Close stops accepting connections. In-flight calls finish.
func (r *RPCServer) Close() error { return r.ln.Close() }

// Client is a typed client for the serving API. It is safe for concurrent
// use; concurrent calls share the connection.
type Client struct {
	c *wire.Client
}

// Dial connects to a serving front end.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{c: wire.NewClient(conn)}, nil
}

// TopK runs a batched top-K query.
func (c *Client) TopK(reqs []TopKRequest) ([]TopKResult, error) {
	var reply TopKReply
	if err := c.c.Call(&methodTopK, 0, &TopKArgs{Reqs: reqs}, &reply); err != nil {
		return nil, err
	}
	return reply.Results, nil
}

// Score runs a batched edge-score query.
func (c *Client) Score(reqs []ScoreRequest) ([]float32, error) {
	var reply ScoreReply
	if err := c.c.Call(&methodScore, 0, &ScoreArgs{Reqs: reqs}, &reply); err != nil {
		return nil, err
	}
	return reply.Scores, nil
}

// Rank fetches the mid-rank of dst for (src, rel).
func (c *Client) Rank(rel int, src, dst int32) (float64, error) {
	var reply RankReply
	if err := c.c.Call(&methodRank, 0, &RankArgs{Rel: rel, Src: src, Dst: dst}, &reply); err != nil {
		return 0, err
	}
	return reply.Rank, nil
}

// Reload asks the server to hot-swap its checkpoint.
func (c *Client) Reload(dir string) error {
	return c.c.Call(&methodReload, 0, &ReloadArgs{Dir: dir}, &ReloadReply{})
}

// Stats fetches the serving footprint.
func (c *Client) Stats() (Stats, error) {
	var reply StatsReply
	if err := c.c.Call(&methodStats, 0, &StatsArgs{}, &reply); err != nil {
		return Stats{}, err
	}
	return reply.Stats, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.c.Close() }
