package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"net"

	"pbg/internal/wire"
)

// The front end is internal/wire's framed transport on plain TCP — the one
// internal/dist runs on — with one goroutine per connection reading requests
// and one per request serving it. Request structs are wire types distinct
// from the engine types so the decode surface stays small and fully
// validated before any scoring happens: a frame's payload length is held to
// its method's bound before a byte of it is read (the method table below),
// the hand-written parsers allocate nothing the payload's own bytes do not
// back, and Validate checks every field against the schema. FuzzTopKRequest
// drives exactly what a connection runs for a TopK frame — ParseWire, then
// Validate — with arbitrary bytes.

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
	if len(a.Reqs) > rpcMaxBatch {
		return fmt.Errorf("serve: topk batch of %d exceeds limit %d", len(a.Reqs), rpcMaxBatch)
	}
	for i := range a.Reqs {
		if a.Reqs[i].K > 1<<20 {
			return fmt.Errorf("serve: request %d: K %d exceeds limit", i, a.Reqs[i].K)
		}
	}
	return s.validateTopK(a.Reqs)
}

// batchCount reads a batch's request count and holds it to rpcMaxBatch
// before the parser allocates the batch.
func batchCount(d *wire.Dec, elemBytes int) (int, error) {
	n := d.Count(elemBytes)
	if n > rpcMaxBatch {
		return 0, fmt.Errorf("serve: batch of %d exceeds limit %d", n, rpcMaxBatch)
	}
	return n, nil
}

// topKRequestBytes is the least a TopKRequest takes on the wire (an empty
// Vector).
const topKRequestBytes = 8 + 4 + 4 + 8 + 1 + 8

func (a TopKArgs) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Reqs)))
	for i := range a.Reqs {
		r := &a.Reqs[i]
		dst = binary.LittleEndian.AppendUint32(wire.AppendInt(dst, r.Rel), uint32(r.SrcID))
		dst = wire.AppendInt(wire.AppendFloats(dst, r.Vector), r.K)
		dst = wire.AppendInt(wire.AppendBool(dst, r.Exact), r.NProbe)
	}
	return dst
}

func (a *TopKArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	n, err := batchCount(d, topKRequestBytes)
	if err != nil {
		return err
	}
	a.Reqs = nil
	if n > 0 {
		a.Reqs = make([]TopKRequest, n)
	}
	for i := range a.Reqs {
		r := &a.Reqs[i]
		r.Rel, r.SrcID, r.Vector, r.K, r.Exact, r.NProbe = d.Int(), d.Int32(), d.Floats(), d.Int(), d.Bool(), d.Int()
	}
	return d.Done()
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

func appendInt32s(dst []byte, xs []int32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(xs)))
	for _, x := range xs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(x))
	}
	return dst
}

func (r TopKReply) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Results)))
	for i := range r.Results {
		res := &r.Results[i]
		dst = wire.AppendFloats(appendInt32s(dst, res.IDs), res.Scores)
		dst = wire.AppendInt(wire.AppendInt(wire.AppendInt(dst, res.Scanned), res.Probed), res.Reranked)
	}
	return dst
}

func (r *TopKReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Results = nil
	if n := d.Count(4 + 4 + 3*8); n > 0 {
		r.Results = make([]TopKResult, n)
	}
	for i := range r.Results {
		res := &r.Results[i]
		if n := d.Count(4); n > 0 {
			res.IDs = make([]int32, n)
			for j := range res.IDs {
				res.IDs[j] = d.Int32()
			}
		}
		res.Scores, res.Scanned, res.Probed, res.Reranked = d.Floats(), d.Int(), d.Int(), d.Int()
	}
	return d.Done()
}

func (a ScoreArgs) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.Reqs)))
	for _, r := range a.Reqs {
		dst = RankArgs(r).AppendWire(dst)
	}
	return dst
}

func (a *ScoreArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	n, err := batchCount(d, 16)
	if err != nil {
		return err
	}
	a.Reqs = nil
	if n > 0 {
		a.Reqs = make([]ScoreRequest, n)
	}
	for i := range a.Reqs {
		a.Reqs[i] = ScoreRequest{Rel: d.Int(), Src: d.Int32(), Dst: d.Int32()}
	}
	return d.Done()
}

func (r ScoreReply) AppendWire(dst []byte) []byte { return wire.AppendFloats(dst, r.Scores) }

func (r *ScoreReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Scores = d.Floats()
	return d.Done()
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

func (a RankArgs) AppendWire(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(wire.AppendInt(dst, a.Rel), uint32(a.Src))
	return binary.LittleEndian.AppendUint32(dst, uint32(a.Dst))
}

func (a *RankArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Rel, a.Src, a.Dst = d.Int(), d.Int32(), d.Int32()
	return d.Done()
}

func (r RankReply) AppendWire(dst []byte) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Rank))
}

func (r *RankReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	r.Rank = d.Float64()
	return d.Done()
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

func (a ReloadArgs) AppendWire(dst []byte) []byte { return wire.AppendString(dst, a.Dir) }

func (a *ReloadArgs) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	a.Dir = d.String()
	return d.Done()
}

func (r StatsReply) AppendWire(dst []byte) []byte {
	st := &r.Stats
	dst = wire.AppendInt(wire.AppendString(dst, st.Dir), st.MappedShards)
	dst = wire.AppendBool(wire.AppendInt64(dst, st.MappedBytes), st.HasIndex)
	dst = wire.AppendInt64(wire.AppendInt(wire.AppendInt64(dst, st.IndexBytes), st.IndexLists), st.Requests)
	return wire.AppendInt(wire.AppendInt64(wire.AppendString(dst, st.QuantCodec), st.QuantBytes), st.QuantShards)
}

func (r *StatsReply) ParseWire(b []byte) error {
	d := wire.NewDec(b)
	st := &r.Stats
	st.Dir, st.MappedShards, st.MappedBytes, st.HasIndex = d.String(), d.Int(), d.Int64(), d.Bool()
	st.IndexBytes, st.IndexLists, st.Requests = d.Int64(), d.Int(), d.Int64()
	st.QuantCodec, st.QuantBytes, st.QuantShards = d.String(), d.Int64(), d.Int()
	return d.Done()
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
	if len(args.Reqs) > rpcMaxBatch {
		return fmt.Errorf("serve: score batch of %d exceeds limit %d", len(args.Reqs), rpcMaxBatch)
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

// RPCServer is a listening front end over one Server.
type RPCServer struct {
	ln net.Listener
}

// ListenAndServe exposes s on addr ("host:port"; ":0" picks a free port).
// It returns once the listener is bound; connections are served on
// background goroutines until Close. The transport's byte counters and
// queue-time histogram (pbg_wire_*) land in s's obs hub.
func ListenAndServe(addr string, s *Server) (*RPCServer, error) {
	sv := &Service{s: s}
	srv := wire.NewServer(s.cfg.Obs, "serve")
	srv.Handle(methodTopK, wire.Handler(sv.TopK, nil))
	srv.Handle(methodScore, wire.Handler(sv.Score, nil))
	srv.Handle(methodRank, wire.Handler(sv.Rank, nil))
	srv.Handle(methodReload, wire.Handler(sv.Reload, nil))
	srv.Handle(methodStats, wire.Handler(sv.Stats, nil))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
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
	if err := c.c.Call(&methodTopK, 0, TopKArgs{Reqs: reqs}, &reply); err != nil {
		return nil, err
	}
	return reply.Results, nil
}

// Score runs a batched edge-score query.
func (c *Client) Score(reqs []ScoreRequest) ([]float32, error) {
	var reply ScoreReply
	if err := c.c.Call(&methodScore, 0, ScoreArgs{Reqs: reqs}, &reply); err != nil {
		return nil, err
	}
	return reply.Scores, nil
}

// Rank fetches the mid-rank of dst for (src, rel).
func (c *Client) Rank(rel int, src, dst int32) (float64, error) {
	var reply RankReply
	if err := c.c.Call(&methodRank, 0, RankArgs{Rel: rel, Src: src, Dst: dst}, &reply); err != nil {
		return 0, err
	}
	return reply.Rank, nil
}

// Reload asks the server to hot-swap its checkpoint.
func (c *Client) Reload(dir string) error {
	return c.c.Call(&methodReload, 0, ReloadArgs{Dir: dir}, &ReloadReply{})
}

// Stats fetches the serving footprint.
func (c *Client) Stats() (Stats, error) {
	var reply StatsReply
	if err := c.c.Call(&methodStats, 0, StatsArgs{}, &reply); err != nil {
		return Stats{}, err
	}
	return reply.Stats, nil
}

// Close tears down the connection.
func (c *Client) Close() error { return c.c.Close() }
