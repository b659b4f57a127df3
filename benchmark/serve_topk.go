package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"pbg"
	"pbg/internal/rng"
	"pbg/internal/serve"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// serveEnv is the serving stack under load: a trained checkpoint on disk,
// the server over its memory-mapped shards with an IVF index, the net/rpc
// front end on loopback, and one client connection per load generator.
type serveEnv struct {
	g       *pbg.Graph
	dir     string
	srv     *serve.Server
	front   *serve.RPCServer
	clients []*serve.Client
	stream  []int32
}

// close shuts the stack down front to back; the checkpoint directory may be
// removed only after it returns.
func (e *serveEnv) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range e.clients {
		keep(c.Close())
	}
	if e.front != nil {
		keep(e.front.Close())
	}
	if e.srv != nil {
		keep(e.srv.Close())
	}
	return first
}

// openServeEnv is the serving workload's set-up: generate the graph, train
// the checkpoint, write relations.pbg, open the server, build the IVF index,
// listen, dial. Each step is a span; the index build and open times are
// also serve.* rows.
func openServeEnv(r *run) (env *serveEnv, err error) {
	sh := serveShape
	e := &serveEnv{}
	defer func() {
		if err != nil {
			_ = e.close() // the set-up error is the one to report
		}
	}()
	e.g, err = pbg.SocialGraph(pbg.SocialGraphConfig{
		Nodes: sh.nodes, AvgOutDegree: sh.degree, NumPartitions: sh.parts, Seed: r.seed,
	})
	if err != nil {
		return nil, err
	}
	if e.dir, err = r.dir("ckpt"); err != nil {
		return nil, err
	}
	// Training straight into a DiskStore at dir leaves the checkpoint's
	// shard layout behind once the store is closed.
	sp := r.span("setup.train_checkpoint")
	store, err := storage.NewDiskStore(e.dir, e.g.Schema, sh.dim, r.seed+1, 1)
	if err != nil {
		return nil, err
	}
	tr, err := train.New(e.g, store, train.Config{Dim: sh.dim, Epochs: sh.epochs, Workers: r.procs, Seed: r.seed})
	if err == nil {
		_, err = tr.Train(nil)
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = writeRelations(tr, e.g.Schema, e.dir)
	}
	sp.End()
	if err != nil {
		return nil, err
	}

	sp = r.span("serve.open")
	start := time.Now()
	e.srv, err = serve.Open(e.dir, serve.Config{Schema: e.g.Schema, Dim: sh.dim, Obs: r.hub})
	sp.End()
	if err != nil {
		return nil, err
	}
	r.set("serve.open_s", time.Since(start).Seconds(), "s")
	sp = r.span("serve.build_ivf")
	start = time.Now()
	err = e.srv.BuildIndex(serve.IVFConfig{Seed: r.seed})
	sp.End()
	if err != nil {
		return nil, err
	}
	r.set("serve.build_ivf_s", time.Since(start).Seconds(), "s")

	if e.front, err = serve.ListenAndServe("127.0.0.1:0", e.srv); err != nil {
		return nil, err
	}
	for i := 0; i < r.procs; i++ {
		c, err := serve.Dial(e.front.Addr())
		if err != nil {
			return nil, err
		}
		e.clients = append(e.clients, c)
	}
	e.stream = queryStream(r.seed, sh.nodes, sh.zipf, 1<<16)
	return e, nil
}

// queryStream draws n Zipf-skewed source ids from seed. Popularity rank is
// mapped to an id through a seeded permutation, so the hot sources are
// spread over every partition.
func queryStream(seed uint64, nodes int, s float64, n int) []int32 {
	rg := rng.New(seed ^ 0x9e3779b97f4a7c15)
	perm := make([]int, nodes)
	rg.Perm(perm)
	z := rng.NewZipf(nodes, s)
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(perm[z.Sample(rg)])
	}
	return out
}

func (e *serveEnv) request(pos int, exact bool) serve.TopKRequest {
	return serve.TopKRequest{Rel: 0, SrcID: e.stream[pos%len(e.stream)], K: serveShape.k, Exact: exact}
}

// loopStats is what a load phase observed. lat[i] is the latency of the
// i-th successful call (a batch in a closed loop, a request timed from its
// due time in an open loop), late[i] how far behind its due time an
// open-loop request was sent.
type loopStats struct {
	sent, failed             int
	scanned, probed, reranks int
	lat, late                []time.Duration
	elapsed                  time.Duration
}

func (a *loopStats) merge(b *loopStats) {
	a.sent += b.sent
	a.failed += b.failed
	a.scanned += b.scanned
	a.probed += b.probed
	a.reranks += b.reranks
	a.lat = append(a.lat, b.lat...)
	a.late = append(a.late, b.late...)
	a.elapsed += b.elapsed
}

func (a *loopStats) count(res []serve.TopKResult) {
	for i := range res {
		a.scanned += res[i].Scanned
		a.probed += res[i].Probed
		a.reranks += res[i].Reranked
	}
}

// closedLoop keeps one batch in flight per client connection for d: each
// connection sends its next batch only when the previous one has returned.
func (e *serveEnv) closedLoop(r *run, name string, d time.Duration, batch int, exact bool) loopStats {
	phase := r.span(name)
	defer phase.End()
	start := time.Now()
	deadline := start.Add(d)
	per := make([]loopStats, len(e.clients))
	var wg sync.WaitGroup
	for w, c := range e.clients {
		wg.Add(1)
		go func(w int, c *serve.Client) {
			defer wg.Done()
			st := &per[w]
			reqs := make([]serve.TopKRequest, batch)
			// Connection w walks the stream in strides, so the connections
			// together cover it in order.
			for pos := w * batch; ; pos += len(e.clients) * batch {
				sent := time.Now()
				if !sent.Before(deadline) {
					return
				}
				for i := range reqs {
					reqs[i] = e.request(pos+i, exact)
				}
				sp := phase.Child("serve.client_topk")
				res, err := c.TopK(reqs)
				sp.End()
				st.sent += batch
				if err != nil || len(res) != batch {
					st.failed += batch
					continue
				}
				st.count(res)
				st.lat = append(st.lat, time.Since(sent))
			}
		}(w, c)
	}
	wg.Wait()
	var all loopStats
	for i := range per {
		all.merge(&per[i])
	}
	all.elapsed = time.Since(start)
	return all
}

// closedQPS is a closed loop's throughput in wall time, two ways: at its
// median batch time (connections x batch / median batch latency, which with
// one batch in flight per connection equals completions per second when every
// batch takes the median time) and as plain completions over elapsed.
func closedQPS(st loopStats, conns, batch int) (atMedian, meanQPS float64) {
	if len(st.lat) == 0 {
		return 0, 0
	}
	atMedian = float64(conns*batch) / (median(durationsMs(st.lat)) / 1e3)
	meanQPS = float64(st.sent-st.failed) / st.elapsed.Seconds()
	return atMedian, meanQPS
}

// openLoop sends batch-1 IVF requests on a fixed schedule of rate per second
// for d, whatever the server does: request i is due at start + i/rate, goes
// out on connection i mod connections as soon as that connection is free,
// and is timed from its due time, so a stall's cost to the requests queued
// behind it is counted. late is how far behind its due time each request
// left the generator.
func (e *serveEnv) openLoop(r *run, name string, d time.Duration, rate float64) loopStats {
	phase := r.span(name)
	defer phase.End()
	total := int(rate * d.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	per := make([]loopStats, len(e.clients))
	var wg sync.WaitGroup
	for w, c := range e.clients {
		wg.Add(1)
		go func(w int, c *serve.Client) {
			defer wg.Done()
			st := &per[w]
			reqs := make([]serve.TopKRequest, 1)
			for i := w; i < total; i += len(e.clients) {
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				reqs[0] = e.request(i, false)
				sent := time.Now()
				sp := phase.Child("serve.client_topk")
				res, err := c.TopK(reqs)
				sp.End()
				st.sent++
				st.late = append(st.late, sent.Sub(due))
				if err != nil || len(res) != 1 {
					st.failed++
					continue
				}
				st.count(res)
				st.lat = append(st.lat, time.Since(due))
			}
		}(w, c)
	}
	wg.Wait()
	var all loopStats
	for i := range per {
		all.merge(&per[i])
	}
	all.elapsed = time.Since(start)
	return all
}

// runServeTopK is the serving workload: top-10 neighbours over a trained
// 4-partition checkpoint, through the RPC front end, one connection per
// processor. It reads storage's bytes through mmap and runs vec.MulABt
// forward-only — the two layers the training workloads use read-write and
// forward+backward — and it splits exact from IVF so an index change has a
// phase that exercises it and a phase that bypasses it.
func runServeTopK(r *run) error {
	sh := serveShape
	var env *serveEnv
	teardown, err := r.timeSetup(func() (func() error, error) {
		e, err := openServeEnv(r)
		if err != nil {
			return nil, err
		}
		env = e
		return e.close, nil
	})
	if err != nil {
		return err
	}
	defer func() { r.closed("the serving stack", teardown()) }()

	if err := env.checkExact(r); err != nil {
		return err
	}
	recall, err := env.recall(r)
	if err != nil {
		return err
	}
	r.set("quality", recall, "ratio")
	r.check(recall >= sh.recallFloor, "recall@%d %.4f below %.2f", sh.k, recall, sh.recallFloor)

	// The five phases (closed-loop exact, closed-loop IVF, open loop at r1,
	// r2, r3) run as serveRounds interleaved rounds of short slices, not as
	// five long blocks: the sandbox slows down for a second or two at a
	// time, and a phase measured in one block inherits whatever its block
	// met, while slices spread over the whole run meet the same mix.
	slice := func(share float64) time.Duration {
		return time.Duration(r.seconds * share / serveRounds * float64(time.Second)).Round(time.Millisecond)
	}
	// Warm-up: page the shards in and fill the workspace pool.
	env.closedLoop(r, "serve.warmup", slice(closedShare), sh.batch, true)
	env.closedLoop(r, "serve.warmup", slice(closedShare), sh.batch, false)

	var (
		exact, ivf       loopStats
		exactQPS, ivfQPS []float64 // per slice
		ivfWallQPS       []float64
		open             [3]loopStats
		p50s             [3][]float64
	)
	// A closed-loop slice is timed between two readings of the machine's
	// speed; its rate is completions over its length in granted time at the
	// nominal speed.
	g := r.newGauge(time.Duration(r.seconds * serveRefShare / (3 * serveRounds) * float64(time.Second)))
	closedSlice := func(name string, isExact bool, all *loopStats) (rate, wallRate float64) {
		var st loopStats
		l, speed, _ := g.around(func() error {
			st = env.closedLoop(r, name, slice(closedShare), sh.batch, isExact)
			return nil
		})
		all.merge(&st)
		done := float64(st.sent - st.failed)
		return done / atNominal(l, speed), done / l.wall.Seconds()
	}
	for round := 0; round < serveRounds; round++ {
		q, _ := closedSlice("serve.exact_b32", true, &exact)
		exactQPS = append(exactQPS, q)
		q, wq := closedSlice("serve.ivf_b32", false, &ivf)
		ivfQPS, ivfWallQPS = append(ivfQPS, q), append(ivfWallQPS, wq)
		for i, rate := range sh.rates {
			st := env.openLoop(r, fmt.Sprintf("serve.open_r%d", i+1), slice(openShares[i]), rate)
			open[i].merge(&st)
			p50s[i] = append(p50s[i], median(durationsMs(st.lat)))
		}
		g.stale()
	}

	_, exactMean := closedQPS(exact, len(env.clients), sh.batch)
	r.ops(exact.sent, exact.failed)
	r.set("serve.exact_qps", median(exactQPS), "1/s")
	r.set("serve.exact_qps_mean", exactMean, "1/s")
	r.note("serve.exact_qps: closed loop, %d connections, batch %d; median over %d slices of %v of completions a second, each slice in granted time at the nominal machine speed (%d batches)", len(env.clients), sh.batch, serveRounds, slice(closedShare), len(exact.lat))

	ivfAtMedian, ivfMean := closedQPS(ivf, len(env.clients), sh.batch)
	r.ops(ivf.sent, ivf.failed)
	r.headlineOps += ivf.sent
	r.set("throughput_per_s", median(ivfQPS), "1/s")
	r.set("runtime.throughput_wall_per_s", median(ivfWallQPS), "1/s")
	r.set("serve.ivf_qps_mean", ivfMean, "1/s")
	r.note("throughput_per_s = serve_ivf_qps: closed loop, %d connections, batch %d; median (p10 %.0f, p90 %.0f /s) over %d slices of %v of completions a second, each slice in granted time at the nominal machine speed (%d batches; %.0f /s in wall time at the median batch time)",
		len(env.clients), sh.batch, quantile(ivfQPS, 0.1), quantile(ivfQPS, 0.9), serveRounds, slice(closedShare), len(ivf.lat), ivfAtMedian)
	r.set("serve.rows_scanned_per_query.exact", perQuery(exact.scanned, exact), "count")
	r.set("serve.rows_scanned_per_query.ivf", perQuery(ivf.scanned, ivf), "count")
	r.set("serve.lists_probed_per_query", perQuery(ivf.probed, ivf), "count")
	r.set("serve.rows_reranked_per_query", perQuery(ivf.reranks, ivf), "count")
	r.check(perQuery(ivf.scanned, ivf) < perQuery(exact.scanned, exact), "IVF scanned as many rows per query as the exact path")

	maxOK := 0.0
	for i, rate := range sh.rates {
		st := open[i]
		// A request that failed or was refused misses the limit.
		r.ops(st.sent, st.failed)
		lat := durationsMs(st.lat)
		within := 0
		for _, l := range st.lat {
			if l <= sh.limit {
				within++
			}
		}
		okShare := float64(within) / float64(max(st.sent, 1))
		tag := fmt.Sprintf("_r%d", i+1)
		r.set("serve.p50_ms"+tag, median(p50s[i]), "ms")
		r.set("serve.p99_ms"+tag, quantile(lat, 0.99), "ms")
		r.set("serve.ok_share"+tag, okShare, "share")
		if okShare >= sh.okShare {
			maxOK = rate
		}
		if i == 1 {
			r.set("serve.generator_late_ms_p99", quantile(durationsMs(st.late), 0.99), "ms")
			r.note("serve.p50_ms_r2: open loop at r2 = %.0f/s, IVF batch 1, timed from due time; median over %d slices of %v of each slice's p50, %d samples (%d beyond serve.p99_ms_r2)", rate, serveRounds, slice(openShares[i]), len(lat), len(lat)/100)
		}
	}
	r.set("serve.max_rate_ok", maxOK, "1/s")
	r.note("serve.max_rate_ok: highest of r1..r3 = %v /s at which >= %.0f%% of requests sent finish within %v", sh.rates, 100*sh.okShare, sh.limit)

	stats, err := env.srv.Stats()
	if err != nil {
		return err
	}
	r.set("peak_resident_mb", float64(stats.MappedBytes+stats.IndexBytes+stats.QuantBytes)/(1<<20), "MiB")
	r.note("peak_resident_mb: mapped shard bytes + IVF index bytes of the served view")
	if r.traced {
		if err := env.reportLayers(r); err != nil {
			return err
		}
	}
	return nil
}

func perQuery(total int, st loopStats) float64 {
	ok := st.sent - st.failed
	if ok <= 0 {
		return 0
	}
	return float64(total) / float64(ok)
}

// reportLayers emits the serve.* rows that need the traced run's shared
// registry, and the in-process versus RPC comparison.
func (e *serveEnv) reportLayers(r *run) error {
	snap := r.hub.Reg.Snapshot()
	lat := snap.Histograms[`pbg_serve_latency_s{api="topk"}`].Sum
	if lat > 0 {
		r.set("serve.plan_share", snap.Histograms[`pbg_serve_stage_s{stage="plan"}`].Sum/lat, "share")
		r.set("serve.scan_share", snap.Histograms[`pbg_serve_stage_s{stage="scan"}`].Sum/lat, "share")
	}

	// Closed-loop batch-1 capacity, the base the frozen open-loop rates were
	// chosen against.
	d := time.Duration(r.seconds * 0.06 * float64(time.Second))
	b1, _ := closedQPS(e.closedLoop(r, "serve.closed_b1", d, 1, false), len(e.clients), 1)
	r.set("serve.closed_b1_qps", b1, "1/s")

	// The same batches through Server.TopK and through Client.TopK, one
	// caller, alternating so both meet the same machine: the difference of
	// the medians is what the RPC front end costs.
	sp := r.span("serve.inproc_vs_rpc")
	defer sp.End()
	const batches = 64
	reqs := make([]serve.TopKRequest, serveShape.batch)
	calls := [2]func([]serve.TopKRequest) ([]serve.TopKResult, error){e.srv.TopK, e.clients[0].TopK}
	var ms [2][]float64
	for b := 0; b < batches; b++ {
		for i := range reqs {
			reqs[i] = e.request(b*len(reqs)+i, false)
		}
		for side, call := range calls {
			start := time.Now()
			if _, err := call(reqs); err != nil {
				return err
			}
			ms[side] = append(ms[side], millis(time.Since(start)))
		}
	}
	r.set("serve.inproc_b32_ms_p50", median(ms[0]), "ms")
	r.set("serve.rpc_overhead_ms", median(ms[1])-median(ms[0]), "ms")
	return nil
}

// checkExact compares the server's exact top-K on a sample of the stream
// with a brute-force reference the benchmark computes itself from the shard
// files: every destination scored in float64, sorted by score then id. An
// id may differ from the reference only where the two scores tie within
// float32 rounding.
func (e *serveEnv) checkExact(r *run) error {
	sp := r.span("serve.check_exact")
	defer sp.End()
	sh := serveShape
	emb, err := loadEmbeddings(e.dir, e.g, sh.dim)
	if err != nil {
		return err
	}
	reqs := make([]serve.TopKRequest, sh.refQueries)
	for i := range reqs {
		reqs[i] = e.request(i*7, true)
	}
	res, err := e.clients[0].TopK(reqs)
	if err != nil {
		return fmt.Errorf("exact reference batch: %w", err)
	}
	wrong := 0
	for i, q := range reqs {
		if !matchesReference(emb, sh.dim, q.SrcID, sh.k, res[i].IDs) {
			wrong++
		}
	}
	r.ops(len(reqs), wrong)
	r.check(wrong == 0, "%d of %d exact top-%d answers differ from the brute-force reference", wrong, len(reqs), sh.k)
	return nil
}

// loadEmbeddings reads every node's embedding from the checkpoint's shard
// files into one nodes×dim slice indexed by global id.
func loadEmbeddings(dir string, g *pbg.Graph, dim int) ([]float32, error) {
	ent := g.Schema.Entities[0]
	emb := make([]float32, ent.Count*dim)
	for p := 0; p < ent.NumPartitions; p++ {
		shard, err := storage.ReadShard(storage.ShardPath(dir, 0, p))
		if err != nil {
			return nil, err
		}
		copy(emb[p*ent.PartSize()*dim:], shard.Embs)
	}
	return emb, nil
}

// matchesReference reports whether got is the top-k of src against every
// node under dot-product scores, ties within rounding allowed.
func matchesReference(emb []float32, dim int, src int32, k int, got []int32) bool {
	n := len(emb) / dim
	q := emb[int(src)*dim : (int(src)+1)*dim]
	scores := make([]float64, n)
	for id := range scores {
		row := emb[id*dim : (id+1)*dim]
		for j := range q {
			scores[id] += float64(q[j]) * float64(row[j])
		}
	}
	if len(got) != k {
		return false
	}
	// k selection passes: the best id not yet taken, higher score first,
	// lower id on ties.
	taken := make([]bool, n)
	for _, id := range got {
		want := -1
		for c := range scores {
			if !taken[c] && (want < 0 || scores[c] > scores[want]) {
				want = c
			}
		}
		taken[want] = true
		if id < 0 || int(id) >= n {
			return false
		}
		if int(id) != want && math.Abs(scores[id]-scores[want]) > 1e-5*math.Max(1, math.Abs(scores[want])) {
			return false
		}
	}
	return true
}

// recall measures recall@k of the IVF path against the exact path on the
// first queries of the stream, in process.
func (e *serveEnv) recall(r *run) (float64, error) {
	sp := r.span("serve.recall")
	defer sp.End()
	const sample = 1024
	sh := serveShape
	hits := 0
	for lo := 0; lo < sample; lo += sh.batch {
		ex := make([]serve.TopKRequest, sh.batch)
		ap := make([]serve.TopKRequest, sh.batch)
		for i := range ex {
			ex[i] = e.request(lo+i, true)
			ap[i] = e.request(lo+i, false)
		}
		want, err := e.srv.TopK(ex)
		if err != nil {
			return 0, err
		}
		got, err := e.srv.TopK(ap)
		if err != nil {
			return 0, err
		}
		for i := range want {
			in := map[int32]bool{}
			for _, id := range got[i].IDs {
				in[id] = true
			}
			for _, id := range want[i].IDs {
				if in[id] {
					hits++
				}
			}
		}
	}
	r.note("quality = serve_recall_at_10: IVF answers vs exact answers on the first %d queries of the stream", sample)
	return float64(hits) / float64(sample*sh.k), nil
}
