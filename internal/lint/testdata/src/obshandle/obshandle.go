// Fixture for the obshandle analyzer: registry lookups belong in
// constructors, and metric names follow pbg_<pkg>_<name>.
package obshandle

import "pbg/internal/obs"

type server struct {
	reg  *obs.Registry
	hits *obs.Counter
	lat  *obs.Histogram
}

// newServer resolves handles at construction — the approved shape.
func newServer(reg *obs.Registry) *server {
	return &server{
		reg:  reg,
		hits: reg.Counter("pbg_obshandle_hits_total"),
		lat:  reg.Histogram(`pbg_obshandle_rpc_ns{method="get"}`),
	}
}

// newBadName is a constructor, but the literal violates the naming scheme.
func newBadName(reg *obs.Registry) *obs.Counter {
	return reg.Counter("requests") // want `metric name "requests" does not match`
}

// bindMetrics rebinds handles onto a new registry — also construction-time.
func (s *server) bindMetrics(reg *obs.Registry) {
	s.reg = reg
	s.hits = reg.Counter("pbg_obshandle_hits_total")
}

// handle is a request path: per-operation lookups take the registry mutex.
func (s *server) handle() {
	s.reg.Counter("pbg_obshandle_hits_total").Inc() // want `obs\.Registry\.Counter outside a constructor`
	s.hits.Inc()
}

func (s *server) observeDepth(d int64) {
	g := s.reg.Gauge("pbg_obshandle_queue_depth") // want `obs\.Registry\.Gauge outside a constructor`
	g.Set(d)
}

// main runs once at start-up: a command registering a constant series on its
// hub there is construction-time too.
func main() {
	var reg *obs.Registry
	reg.Gauge(`pbg_obshandle_build_info{impl="x"}`).Set(1)
}
