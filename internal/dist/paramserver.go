package dist

import (
	"fmt"
	"sync"
)

// ParamServer keeps the shared relation-operator parameters loosely
// consistent across trainers (§4.2). Trainers update relation parameters on
// every batch, so checking them in and out like partitions would serialise
// training; instead each trainer periodically pushes the delta it
// accumulated locally since its last sync and receives the current global
// block back. The global value therefore converges to the initial value
// plus the sum of all trainers' updates, while any trainer's view is stale
// by at most its sync interval — the paper's asynchronous parameter server.
type ParamServer struct {
	mu       sync.Mutex
	params   map[int][]float32
	versions map[int]int64
}

// NewParamServer creates an empty parameter server; relation blocks appear
// as trainers call InitRel.
func NewParamServer() *ParamServer {
	return &ParamServer{params: make(map[int][]float32), versions: make(map[int]int64)}
}

// restore seeds the server with checkpointed relation blocks before any
// trainer connects; InitRel's first-writer-wins rule then makes every
// trainer adopt the restored values instead of fresh initialisation.
func (s *ParamServer) restore(blocks []RelBlock) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, b := range blocks {
		s.params[b.Rel] = append([]float32(nil), b.Params...)
	}
}

// InitRel publishes a relation's initial parameters. The first caller's
// block becomes canonical; everyone receives it back, so all trainers start
// identically even if their local initialisation differs.
func (s *ParamServer) InitRel(args InitRelArgs, reply *InitRelReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.params[args.Rel]
	if !ok {
		cur = append([]float32(nil), args.Params...)
		s.params[args.Rel] = cur
	} else if len(cur) != len(args.Params) {
		return fmt.Errorf("dist: relation %d has %d params on server, client sent %d", args.Rel, len(cur), len(args.Params))
	}
	reply.Params = append([]float32(nil), cur...)
	reply.Version = s.versions[args.Rel]
	return nil
}

// InitRelReply returns the canonical initial block.
type InitRelReply struct {
	Params  []float32
	Version int64
}

// Sync applies a client's accumulated delta and returns the new global
// parameters.
func (s *ParamServer) Sync(args SyncArgs, reply *SyncReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.params[args.Rel]
	if !ok {
		return fmt.Errorf("dist: Sync for uninitialised relation %d", args.Rel)
	}
	if len(args.Delta) != len(cur) {
		return fmt.Errorf("dist: Sync delta for relation %d has %d params, want %d", args.Rel, len(args.Delta), len(cur))
	}
	for i, d := range args.Delta {
		cur[i] += d
	}
	s.versions[args.Rel]++
	reply.Params = append([]float32(nil), cur...)
	reply.Version = s.versions[args.Rel]
	return nil
}

// Pull fetches a relation's current global parameters without pushing.
func (s *ParamServer) Pull(args PullArgs, reply *SyncReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.params[args.Rel]
	if !ok {
		return fmt.Errorf("dist: Pull for uninitialised relation %d", args.Rel)
	}
	reply.Params = append([]float32(nil), cur...)
	reply.Version = s.versions[args.Rel]
	return nil
}
