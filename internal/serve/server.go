package serve

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/obs"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// Config configures a Server. Schema and Dim must match the checkpoint;
// everything else has serving defaults.
type Config struct {
	Schema *graph.Schema
	Dim    int
	// Comparator is the trained model's comparator ("dot", "cos", "l2",
	// "squared_l2"); default "dot".
	Comparator string
	// Reciprocal must match the training config: it doubles the relation
	// parameter block (the reverse half is unused by forward serving but
	// the checkpoint layout depends on it).
	Reciprocal bool
	// NProbe is the default IVF probe width (0 = DefaultNProbe of the
	// destination type's list count).
	NProbe int
	// Obs receives serving metrics; nil installs a quiet hub.
	Obs *obs.Hub
}

// view is one immutable serving snapshot: shards, relation parameters,
// scorers, and (optionally) an IVF index. Requests acquire a reference for
// their whole duration; Reload swaps the current view atomically and the
// old view's resources are released when its last in-flight request
// finishes — a reader can never observe shards from one snapshot paired
// with an index from another, and munmap can never race a reader.
type view struct {
	// refs counts 1 for being current plus 1 per in-flight request; the
	// view closes when it hits 0 after being retired.
	refs    atomic.Int64
	retired atomic.Bool

	ss      *ShardSet
	ivf     *IVF // nil: exact scans only
	scorers []*model.Scorer
	relFwd  [][]float32 // forward operator params per relation
	srcType []int       // source entity-type index per relation
	dstType []int       // destination entity-type index per relation
	nprobe  int         // Config.NProbe; 0 resolves per destination type in topKIVF

	// rawRows[r]: relation r's comparator scores rows as stored — its Prepare
	// is the identity — so fp32 candidates are read where they lie (scoreRows).
	rawRows []bool
}

// tryAcquire takes a reference unless the view is already drained.
func (v *view) tryAcquire() bool {
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (v *view) release() {
	if v.refs.Add(-1) == 0 {
		_ = v.ss.Close()
	}
}

// retire drops the "current" reference; the last in-flight request (or
// this call, if none) closes the shard set.
func (v *view) retire() {
	if !v.retired.CompareAndSwap(false, true) {
		return
	}
	v.release()
}

// metrics is the serving instrumentation, registered once at Open.
type metrics struct {
	reqTopK  *obs.Counter // pbg_serve_requests_total{api=...}
	reqScore *obs.Counter
	reqRank  *obs.Counter
	queries  *obs.Counter // individual queries inside batches
	// The work counters count what was done, i.e. over the distinct questions
	// of each batch (tally): rowsScored is (query, row) pairs scored, deduped
	// the queries answered from another's result instead.
	rowsScored *obs.Counter
	deduped    *obs.Counter
	// rowsGathered counts rows read from the shards, copied into scratch or
	// scored in place. A scan shares each row it reads across the batch, so
	// scored ÷ gathered is how many queries a row read served.
	rowsGathered *obs.Counter
	listsProbed  *obs.Counter
	reloads      *obs.Counter
	errors       *obs.Counter

	latTopK  *obs.Histogram // whole-call latency, seconds
	latScore *obs.Histogram
	// The two stages of a TopK call (tally.plan, tally.scan); per call they
	// sum to latTopK's observation.
	stagePlan *obs.Histogram
	stageScan *obs.Histogram

	mappedBytes  *obs.Gauge
	mappedShards *obs.Gauge
	indexBytes   *obs.Gauge
	indexLists   *obs.Gauge
}

func bindMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reqTopK:      reg.Counter(`pbg_serve_requests_total{api="topk"}`),
		reqScore:     reg.Counter(`pbg_serve_requests_total{api="score"}`),
		reqRank:      reg.Counter(`pbg_serve_requests_total{api="rank"}`),
		queries:      reg.Counter(`pbg_serve_queries_total`),
		rowsScored:   reg.Counter(`pbg_serve_rows_scored_total`),
		deduped:      reg.Counter(`pbg_serve_queries_deduped_total`),
		rowsGathered: reg.Counter(`pbg_serve_rows_gathered_total`),
		listsProbed:  reg.Counter(`pbg_serve_lists_probed_total`),
		reloads:      reg.Counter(`pbg_serve_reloads_total`),
		errors:       reg.Counter(`pbg_serve_errors_total`),
		latTopK:      reg.Histogram(`pbg_serve_latency_s{api="topk"}`),
		latScore:     reg.Histogram(`pbg_serve_latency_s{api="score"}`),
		stagePlan:    reg.Histogram(`pbg_serve_stage_s{stage="plan"}`),
		stageScan:    reg.Histogram(`pbg_serve_stage_s{stage="scan"}`),
		mappedBytes:  reg.Gauge(`pbg_serve_mapped_bytes`),
		mappedShards: reg.Gauge(`pbg_serve_mapped_shards`),
		indexBytes:   reg.Gauge(`pbg_serve_index_bytes`),
		indexLists:   reg.Gauge(`pbg_serve_index_lists`),
	}
}

// Server answers embedding queries against one checkpoint directory, with
// atomic hot reload. All methods are safe for concurrent use.
type Server struct {
	cfg    Config
	dir    string
	cur    atomic.Pointer[view]
	pool   sync.Pool // *workspace
	met    *metrics
	closed atomic.Bool
	// reloadMu serialises Reload/Close against each other (readers never
	// take it).
	reloadMu sync.Mutex
}

// Open loads the checkpoint under dir and returns a ready server. If an
// IVF index file (IndexPath) is present it is loaded and validated;
// otherwise the server starts in exact-only mode (BuildIndex adds one).
func Open(dir string, cfg Config) (*Server, error) {
	if cfg.Schema == nil || cfg.Dim <= 0 {
		return nil, fmt.Errorf("serve: config needs Schema and positive Dim")
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewQuietHub()
	}
	s := &Server{cfg: cfg, dir: dir, met: bindMetrics(cfg.Obs.Reg)}
	v, err := s.loadView(dir)
	if err != nil {
		return nil, err
	}
	s.install(v)
	return s, nil
}

// loadView builds a fresh view: the scorers, the relation parameters
// (through storage's one gate), the shards and, if present, the index.
// Nothing is visible to readers until install.
func (s *Server) loadView(dir string) (*view, error) {
	schema := s.cfg.Schema
	nrel := len(schema.Relations)
	v := &view{nprobe: s.cfg.NProbe}
	v.scorers = make([]*model.Scorer, nrel)
	v.relFwd = make([][]float32, nrel)
	v.rawRows = make([]bool, nrel)
	v.srcType = make([]int, nrel)
	v.dstType = make([]int, nrel)
	counts := make([]int, nrel)
	for r := 0; r < nrel; r++ {
		rel := &schema.Relations[r]
		sc, err := model.NewScorer(s.cfg.Dim, rel.Operator, s.cfg.Comparator, "ranking", 1, s.cfg.Reciprocal)
		if err != nil {
			return nil, err
		}
		v.scorers[r] = sc
		// The interface's contract: Prepare returns nil iff it is the identity.
		v.rawRows[r] = sc.Cmp.Prepare(vec.Matrix{}) == nil
		v.srcType[r] = schema.EntityTypeIndex(rel.SourceType)
		v.dstType[r] = schema.EntityTypeIndex(rel.DestType)
		counts[r] = sc.RelParamCount()
	}
	params, err := storage.ReadRelationParams(dir, counts)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for r, sc := range v.scorers {
		v.relFwd[r], _ = sc.SplitRelParams(params[r])
	}
	ss, err := OpenShardSet(dir, schema, s.cfg.Dim)
	if err != nil {
		return nil, err
	}
	v.ss = ss
	if _, statErr := os.Stat(IndexPath(dir)); statErr == nil {
		ivf, err := ReadIVF(IndexPath(dir), schema, s.cfg.Dim)
		if err != nil {
			_ = ss.Close()
			return nil, err
		}
		v.ivf = ivf
	}
	v.refs.Store(1)
	return v, nil
}

// install makes v the current view and retires the old one.
func (s *Server) install(v *view) {
	old := s.cur.Swap(v)
	s.publishGauges(v)
	if old != nil {
		old.retire()
	}
}

func (s *Server) publishGauges(v *view) {
	s.met.mappedBytes.Set(v.ss.Bytes())
	s.met.mappedShards.Set(int64(v.ss.MappedShards()))
	if v.ivf != nil {
		s.met.indexBytes.Set(v.ivf.Bytes())
		lists := 0
		for _, it := range v.ivf.Types {
			if it != nil {
				lists += it.Lists
			}
		}
		s.met.indexLists.Set(int64(lists))
	} else {
		s.met.indexBytes.Set(0)
		s.met.indexLists.Set(0)
	}
}

// acquire returns the current view with a reference held, or ErrClosed.
func (s *Server) acquire() (*view, error) {
	for {
		if s.closed.Load() {
			return nil, ErrClosed
		}
		v := s.cur.Load()
		if v == nil {
			return nil, ErrClosed
		}
		if v.tryAcquire() {
			return v, nil
		}
		// Lost the race with a reload that retired v; the new view is (or
		// will momentarily be) current.
	}
}

// Reload atomically swaps in a freshly loaded checkpoint (same directory by
// default; pass a different dir to repoint). In-flight requests finish on
// the old view; new requests see the new one. There is no torn state: the
// swap is a single pointer store of a fully constructed view.
func (s *Server) Reload(dir string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if dir == "" {
		dir = s.dir
	}
	v, err := s.loadView(dir)
	if err != nil {
		s.met.errors.Inc()
		return err
	}
	s.dir = dir
	s.install(v)
	s.met.reloads.Inc()
	return nil
}

// BuildIndex builds an IVF index from the current shards, persists it next
// to the checkpoint, and hot-swaps a view that uses it.
func (s *Server) BuildIndex(cfg IVFConfig) error {
	v, err := s.acquire()
	if err != nil {
		return err
	}
	idx := BuildIVF(v.ss, cfg)
	v.release()
	if err := WriteIVF(IndexPath(s.dir), idx); err != nil {
		return err
	}
	return s.Reload(s.dir)
}

// HasIndex reports whether the current view serves through an IVF index.
func (s *Server) HasIndex() bool {
	v, err := s.acquire()
	if err != nil {
		return false
	}
	defer v.release()
	return v.ivf != nil
}

// Dir returns the currently served checkpoint directory.
func (s *Server) Dir() string {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	return s.dir
}

func (s *Server) getWorkspace() *workspace {
	if ws, ok := s.pool.Get().(*workspace); ok {
		return ws
	}
	return &workspace{}
}

// validateTopK checks a batch against the schema before any scoring.
func (s *Server) validateTopK(reqs []TopKRequest) error {
	schema := s.cfg.Schema
	for i := range reqs {
		r := &reqs[i]
		if r.Rel < 0 || r.Rel >= len(schema.Relations) {
			return fmt.Errorf("serve: request %d: relation %d out of range", i, r.Rel)
		}
		if r.K <= 0 {
			return fmt.Errorf("serve: request %d: non-positive K %d", i, r.K)
		}
		if r.NProbe < 0 {
			return fmt.Errorf("serve: request %d: negative nprobe", i)
		}
		if r.Vector != nil {
			if len(r.Vector) != s.cfg.Dim {
				return fmt.Errorf("serve: request %d: vector dim %d, want %d", i, len(r.Vector), s.cfg.Dim)
			}
			continue
		}
		st := schema.EntityTypeIndex(schema.Relations[r.Rel].SourceType)
		if r.SrcID < 0 || int(r.SrcID) >= schema.Entities[st].Count {
			return fmt.Errorf("serve: request %d: src %d out of range for type %q", i, r.SrcID, schema.Relations[r.Rel].SourceType)
		}
	}
	return nil
}

// groupKey is one scoring group of a TopK batch: a relation on one path.
type groupKey struct {
	rel   int
	exact bool
}

// groupOf is the group a request scores in. Exact requests and requests on
// a view without an index for the destination type take the brute-force scan.
func (v *view) groupOf(r *TopKRequest) groupKey {
	return groupKey{rel: r.Rel, exact: r.Exact || v.ivf == nil || v.ivf.Types[v.dstType[r.Rel]] == nil}
}

// singleGroup reports the group every request of a non-empty batch falls in,
// when there is one.
func (v *view) singleGroup(reqs []TopKRequest) (groupKey, bool) {
	if len(reqs) == 0 {
		return groupKey{}, false
	}
	first := v.groupOf(&reqs[0])
	for i := 1; i < len(reqs); i++ {
		if v.groupOf(&reqs[i]) != first {
			return first, false
		}
	}
	return first, true
}

// topKGroup scores one group's requests into out, each distinct question
// once: requests that ask the same thing — equal SrcID, K and NProbe, no
// Vector — are planned, scored and selected as one query, and every asker
// gets the answer with result slices of its own. Skewed traffic repeats its
// hot sources inside a batch, and a repeated query costs a row of every GEMM
// and a heap of its own for an answer the call already has. A duplicate's
// Scanned and Probed are its first asker's: what was scored for that answer,
// not work done twice.
func (v *view) topKGroup(ws *workspace, k groupKey, reqs []TopKRequest, out []TopKResult) {
	ws.dedupe(reqs)
	if cap(ws.uout) < len(ws.ureqs) {
		ws.uout = make([]TopKResult, len(ws.ureqs))
	}
	uout := ws.uout[:len(ws.ureqs)]
	if k.exact {
		v.topKExact(ws, k.rel, ws.ureqs, uout)
	} else {
		v.topKIVF(ws, k.rel, ws.ureqs, uout)
	}
	for u := range uout {
		ws.tally.scanned += uout[u].Scanned
		ws.tally.probed += uout[u].Probed
	}
	ws.tally.deduped += len(reqs) - len(uout)
	// Questions are numbered in order of first appearance, so the first
	// asker of question u is the first request past those of 0..u−1; it takes
	// the result, later askers a copy.
	next := int32(0)
	for i, u := range ws.rep {
		out[i] = uout[u]
		if u == next {
			next++
			continue
		}
		out[i].IDs = slices.Clone(uout[u].IDs)
		out[i].Scores = slices.Clone(uout[u].Scores)
	}
	clear(uout) // the pooled workspace must not pin the callers' results
	ws.lap(&ws.tally.scan)
}

// dedupe fills ws.ureqs with the distinct questions of reqs, in order of
// first appearance, and ws.rep with the question each request asks. A request
// carrying a Vector is always a question of its own.
func (ws *workspace) dedupe(reqs []TopKRequest) {
	size := 4
	for size < 2*len(reqs) {
		size <<= 1
	}
	if cap(ws.seen) < size {
		ws.seen = make([]int32, size)
	}
	seen := ws.seen[:size] // open addressing: question number + 1, 0 = free
	clear(seen)
	ws.ureqs, ws.rep = ws.ureqs[:0], ws.rep[:0]
	for i := range reqs {
		r := &reqs[i]
		u := int32(len(ws.ureqs)) // a new question, unless the table has it
		if r.Vector == nil {
			h := int((uint64(uint32(r.SrcID))*0x9e3779b97f4a7c15+uint64(r.K)*0xc2b2ae3d27d4eb4f+uint64(r.NProbe))>>32) & (size - 1)
			for ; seen[h] != 0; h = (h + 1) & (size - 1) {
				if q := &ws.ureqs[seen[h]-1]; q.SrcID == r.SrcID && q.K == r.K && q.NProbe == r.NProbe {
					break
				}
			}
			if seen[h] != 0 {
				u = seen[h] - 1
			} else {
				seen[h] = u + 1
			}
		}
		if int(u) == len(ws.ureqs) {
			ws.ureqs = append(ws.ureqs, *r)
		}
		ws.rep = append(ws.rep, u)
	}
}

// TopK answers a batch of top-K requests. Requests are grouped per
// (relation, exact/approximate) and each group is scored with one pass of
// block GEMMs; results align with the input order.
func (s *Server) TopK(reqs []TopKRequest) ([]TopKResult, error) {
	start := time.Now()
	if err := s.validateTopK(reqs); err != nil {
		s.met.errors.Inc()
		return nil, err
	}
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	s.met.reqTopK.Inc()
	s.met.queries.Add(int64(len(reqs)))

	out := make([]TopKResult, len(reqs))
	ws := s.getWorkspace()
	defer s.pool.Put(ws)
	// The call's time is booked to a stage lap by lap, from start: whatever
	// runs up to the end of a group's planning is plan, from there to the end
	// of the group scan, and the two add up to the call.
	ws.tally, ws.last = tally{}, start

	// The common batch is one group — a client asking one relation on one
	// path — and needs no bucketing.
	if group, single := v.singleGroup(reqs); single {
		v.topKGroup(ws, group, reqs, out)
	} else {
		v.topKMixed(ws, reqs, out)
	}
	t := &ws.tally
	s.met.rowsScored.Add(int64(t.scanned))
	s.met.rowsGathered.Add(int64(t.gathered))
	s.met.listsProbed.Add(int64(t.probed))
	s.met.deduped.Add(int64(t.deduped))
	ws.lap(&t.scan)
	s.met.stagePlan.Observe(t.plan.Seconds())
	s.met.stageScan.Observe(t.scan.Seconds())
	s.met.latTopK.Observe(ws.last.Sub(start).Seconds())
	return out, nil
}

// topKMixed scores a batch that spans several groups: request indices are
// bucketed per group, and each group's requests are copied next to each
// other, scored, and its results copied back into input order. Groups run in
// (relation, approximate-first) order.
func (v *view) topKMixed(ws *workspace, reqs []TopKRequest, out []TopKResult) {
	groups := make(map[groupKey][]int)
	for i := range reqs {
		k := v.groupOf(&reqs[i])
		groups[k] = append(groups[k], i)
	}
	keys := make([]groupKey, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rel != keys[j].rel {
			return keys[i].rel < keys[j].rel
		}
		return !keys[i].exact && keys[j].exact
	})
	for _, k := range keys {
		idxs := groups[k]
		greqs := make([]TopKRequest, len(idxs))
		gout := make([]TopKResult, len(idxs))
		for j, i := range idxs {
			greqs[j] = reqs[i]
		}
		v.topKGroup(ws, k, greqs, gout)
		for j, i := range idxs {
			out[i] = gout[j]
		}
	}
}

// Score answers a batch of single-edge score requests, grouped per
// relation. Scores are bitwise what model.Scorer.Score returns for the
// same checkpoint.
func (s *Server) Score(reqs []ScoreRequest) ([]float32, error) {
	start := time.Now()
	schema := s.cfg.Schema
	for i := range reqs {
		r := &reqs[i]
		if r.Rel < 0 || r.Rel >= len(schema.Relations) {
			s.met.errors.Inc()
			return nil, fmt.Errorf("serve: request %d: relation %d out of range", i, r.Rel)
		}
		st := schema.EntityTypeIndex(schema.Relations[r.Rel].SourceType)
		dt := schema.EntityTypeIndex(schema.Relations[r.Rel].DestType)
		if r.Src < 0 || int(r.Src) >= schema.Entities[st].Count {
			s.met.errors.Inc()
			return nil, fmt.Errorf("serve: request %d: src %d out of range", i, r.Src)
		}
		if r.Dst < 0 || int(r.Dst) >= schema.Entities[dt].Count {
			s.met.errors.Inc()
			return nil, fmt.Errorf("serve: request %d: dst %d out of range", i, r.Dst)
		}
	}
	v, err := s.acquire()
	if err != nil {
		return nil, err
	}
	defer v.release()
	s.met.reqScore.Inc()
	s.met.queries.Add(int64(len(reqs)))

	out := make([]float32, len(reqs))
	ws := s.getWorkspace()
	defer s.pool.Put(ws)

	groups := make(map[int][]int)
	for i := range reqs {
		groups[reqs[i].Rel] = append(groups[reqs[i].Rel], i)
	}
	rels := make([]int, 0, len(groups))
	for r := range groups {
		rels = append(rels, r)
	}
	sort.Ints(rels)
	for _, rel := range rels {
		idxs := groups[rel]
		greqs := make([]ScoreRequest, len(idxs))
		for j, i := range idxs {
			greqs[j] = reqs[i]
		}
		gout := make([]float32, len(idxs))
		v.scorePairs(ws, rel, greqs, gout)
		for j, i := range idxs {
			out[i] = gout[j]
		}
	}
	s.met.latScore.Observe(time.Since(start).Seconds())
	return out, nil
}

// Rank returns the mid-rank of dst among all destination-type entities for
// (src, rel), under the same tie convention as offline evaluation
// (eval.MidRank).
func (s *Server) Rank(rel int, src, dst int32) (float64, error) {
	schema := s.cfg.Schema
	if rel < 0 || rel >= len(schema.Relations) {
		s.met.errors.Inc()
		return 0, fmt.Errorf("serve: relation %d out of range", rel)
	}
	st := schema.EntityTypeIndex(schema.Relations[rel].SourceType)
	if src < 0 || int(src) >= schema.Entities[st].Count {
		s.met.errors.Inc()
		return 0, fmt.Errorf("serve: src %d out of range", src)
	}
	v, err := s.acquire()
	if err != nil {
		return 0, err
	}
	defer v.release()
	s.met.reqRank.Inc()
	ws := s.getWorkspace()
	defer s.pool.Put(ws)
	return v.rank(ws, rel, src, dst)
}

// Stats is a point-in-time summary of the serving state.
type Stats struct {
	Dir string
	// MappedShards counts the shards served from a mapping (v1 files on a
	// platform with mmap). MappedBytes is the fp32 row bytes of every shard,
	// mapped or decoded at open.
	MappedShards int
	MappedBytes  int64
	HasIndex     bool
	IndexBytes   int64
	IndexLists   int
	Requests     int64
	// QuantBytes is always 0: every shard is served as fp32 rows, counted in
	// MappedBytes. It is not on the wire, and stays only while the benchmark
	// module still reads it.
	QuantBytes int64
}

// Stats reports the current view's footprint.
func (s *Server) Stats() (Stats, error) {
	v, err := s.acquire()
	if err != nil {
		return Stats{}, err
	}
	defer v.release()
	st := Stats{
		Dir:          s.Dir(),
		MappedShards: v.ss.MappedShards(),
		MappedBytes:  v.ss.Bytes(),
		HasIndex:     v.ivf != nil,
		Requests:     s.met.reqTopK.Value() + s.met.reqScore.Value() + s.met.reqRank.Value(),
	}
	if v.ivf != nil {
		st.IndexBytes = v.ivf.Bytes()
		for _, it := range v.ivf.Types {
			if it != nil {
				st.IndexLists += it.Lists
			}
		}
	}
	return st, nil
}

// Close retires the current view and rejects further requests. In-flight
// requests finish; the shard set unmaps when the last one releases.
func (s *Server) Close() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if v := s.cur.Swap(nil); v != nil {
		v.retire()
	}
	return nil
}
