package main

import (
	"fmt"
	"math"
	"time"

	"pbg/internal/eval"
	"pbg/internal/graph"
	"pbg/internal/train"
)

// epochRec is the part of an epoch's statistics the three training
// workloads share (train.EpochStats locally, dist.EpochStats on a cluster).
type epochRec struct {
	edges, buckets int
	loss           float64 // summed over edges
	wall           time.Duration
	// nodes is how many trainers ran the epoch side by side; ioWait, compute
	// and leaseWait are summed over them, wall is not.
	nodes                      int
	ioWait, compute, leaseWait time.Duration
	// lap is the benchmark's own timing of the epoch, speed the machine's
	// speed around it (0 for the warm-up epoch, which no gauge times).
	lap   lap
	speed float64
}

// edgesPerSec is the epoch's rate in granted time (clock.go) at the nominal
// machine speed (ref.go).
func (e epochRec) edgesPerSec() float64 { return float64(e.edges) / atNominal(e.lap, e.speed) }

func (e epochRec) lossPerEdge() float64 {
	if e.edges == 0 {
		return math.NaN()
	}
	return e.loss / float64(e.edges)
}

func localEpoch(s train.EpochStats) epochRec {
	return epochRec{
		edges: s.Edges, buckets: s.BucketsActive, loss: s.Loss,
		wall: s.Duration, nodes: 1, ioWait: s.IOWait, compute: s.Compute,
	}
}

// evalSource is what a training workload evaluates through: an embedding
// source over the model as trained so far, the relation scorers, and a close
// function that releases whatever the source holds.
type evalSource struct {
	emb     eval.EmbeddingSource
	scorers eval.ScorerSource
	close   func() error
}

// trainTimed is the schedule every training workload follows: one warm-up
// epoch (caches fill, lazy shard init and the lookahead controller's first
// move happen here), then timed epochs until -seconds have passed. After
// qualityAt epochs (a fixed count, so quality does not depend on how fast
// the machine is) openEval opens the evaluation source and every held-out
// edge is ranked once for quality; after each later epoch sliceChunks more
// chunks are ranked for their rate alone. So training and evaluation both
// sample the whole run, and a slow spell of the machine lands in a few
// samples of each rather than in all samples of one.
// It returns the warm-up epoch and the timed ones.
func (r *run) trainTimed(sh trainShape, trainG, testG *graph.Graph, epoch func() (epochRec, error), openEval func() (evalSource, error)) (warm epochRec, timed []epochRec, err error) {
	g := r.newGauge(trainGap)
	timedEpoch := func(name string, gauged bool) (e epochRec, err error) {
		sp := r.span(name)
		work := func() error {
			e, err = epoch()
			return err
		}
		var l lap
		var speed float64
		if gauged {
			l, speed, err = g.around(work)
		} else {
			from := stampNow()
			err = work()
			l = from.lap()
		}
		sp.End()
		e.lap, e.speed = l, speed
		r.trainWindows = append(r.trainWindows, window{from: l.start, to: l.start.Add(l.wall)})
		return e, err
	}
	if warm, err = timedEpoch("train.warmup_epoch", false); err != nil {
		return warm, nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	var ev *evaluator
	defer func() {
		if ev == nil {
			return
		}
		if cerr := ev.src.close(); cerr != nil && err == nil {
			err = fmt.Errorf("closing the evaluation source: %w", cerr)
		}
		if err == nil {
			ev.report()
		}
	}()
	evalStep := func(done int) error {
		switch {
		case done == sh.qualityAt:
			src, err := openEval()
			if err != nil {
				return fmt.Errorf("opening the evaluation source: %w", err)
			}
			ev = r.newEvaluator(sh, trainG, testG, src)
			g.stale() // the quality pass takes a second or so
			return ev.rank(ev.chunks, true)
		case done > sh.qualityAt:
			return ev.rank(sliceChunks, false)
		}
		return nil
	}
	budget := time.Duration(r.seconds * float64(time.Second))
	start := time.Now()
	for done := 1; ; done++ {
		if err := evalStep(done); err != nil {
			return warm, timed, err
		}
		if done >= sh.qualityAt && time.Since(start) >= budget {
			return warm, timed, nil
		}
		e, err := timedEpoch("train.epoch", true)
		if err != nil {
			return warm, timed, fmt.Errorf("epoch %d: %w", done+1, err)
		}
		timed = append(timed, e)
	}
}

// reportTraining turns the epochs into the shared end-to-end metrics and
// the train.* layer rows, and applies the gates every training workload
// shares: finite falling loss, every edge and every bucket trained in every
// epoch.
func (r *run) reportTraining(warm epochRec, timed []epochRec, wantEdges, wantBuckets int) {
	var rates, wallRates, walls []float64
	var laps lap
	var nodeWall, ioWait, compute, leaseWait time.Duration
	for _, e := range append([]epochRec{warm}, timed...) {
		r.check(!math.IsNaN(e.loss) && !math.IsInf(e.loss, 0), "epoch loss is %v", e.loss)
		r.check(e.edges == wantEdges, "epoch trained %d edges, graph has %d", e.edges, wantEdges)
		r.check(e.buckets == wantBuckets, "epoch trained %d buckets, want %d", e.buckets, wantBuckets)
		ok := e.edges == wantEdges && e.buckets == wantBuckets
		r.ops(wantBuckets, boolInt(!ok)*wantBuckets)
	}
	for _, e := range timed {
		r.headlineOps += e.edges
		rates = append(rates, e.edgesPerSec())
		wallRates = append(wallRates, float64(e.edges)/e.lap.wall.Seconds())
		walls = append(walls, e.wall.Seconds())
		laps.add(e.lap)
		nodeWall += e.wall * time.Duration(e.nodes)
		ioWait += e.ioWait
		compute += e.compute
		leaseWait += e.leaseWait
	}
	if len(timed) == 0 {
		r.check(false, "no timed epoch ran")
		return
	}
	last := timed[len(timed)-1]
	r.check(last.lossPerEdge() < warm.lossPerEdge(), "loss/edge did not fall: first epoch %.5f, last %.5f", warm.lossPerEdge(), last.lossPerEdge())

	r.set("throughput_per_s", median(rates), "1/s")
	r.set("runtime.throughput_wall_per_s", median(wallRates), "1/s")
	r.note("throughput_per_s = train_edges_per_s: median (p10 %.0f, p90 %.0f /s) of %d timed epochs of %d edges each, each in granted time at the nominal machine speed",
		quantile(rates, 0.1), quantile(rates, 0.9), len(timed), wantEdges)
	r.note("runtime.throughput_wall_per_s: the same in wall time as the machine ran; the timed epochs took %.2f s, the guest's processors were busy for %.2f s and stolen for %.2f s", laps.wall.Seconds(), laps.busy, laps.steal)
	r.set("train.epoch_s_p50", median(walls), "s")
	r.set("train.epochs_timed", float64(len(timed)), "count")
	// Shares are of node-seconds: a single trainer's epoch wall, or the
	// cluster's epoch wall times its nodes.
	r.set("train.iowait_share", ioWait.Seconds()/nodeWall.Seconds(), "share")
	r.set("train.compute_share", compute.Seconds()/nodeWall.Seconds(), "share")
	r.set("train.unaccounted_share", 1-(ioWait+compute+leaseWait).Seconds()/nodeWall.Seconds(), "share")
	r.set("dist.lease_wait_share", leaseWait.Seconds()/nodeWall.Seconds(), "share")
	r.set("train.loss_per_edge_final", last.lossPerEdge(), "loss")
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sampledSource decorates an eval.EmbeddingSource in traced runs, timing
// one gather in every gatherSample and scaling up, so the decoration costs
// a counter increment on the other calls. Evaluate is single-threaded.
type sampledSource struct {
	inner   eval.EmbeddingSource
	calls   int64
	sampled time.Duration
}

const gatherSample = 64

func (s *sampledSource) Embedding(typeIdx int, id int32, out []float32) ([]float32, error) {
	s.calls++
	if s.calls%gatherSample != 0 {
		return s.inner.Embedding(typeIdx, id, out)
	}
	start := time.Now()
	v, err := s.inner.Embedding(typeIdx, id, out)
	s.sampled += time.Since(start)
	return v, err
}

// evaluator ranks held-out edges against uniform candidates, a chunk at a
// time. It is the same Ranker pbg.Model.Evaluate builds; the benchmark
// builds it itself so a traced run can decorate the embedding source.
type evaluator struct {
	r       *run
	sh      trainShape
	src     evalSource
	rk      *eval.Ranker
	testG   *graph.Graph
	sampled *sampledSource // traced runs only

	chunks int       // the held-out edges make this many chunks of evalChunkEdges
	next   int       // chunks ranked so far; chunk next%chunks is ranked next
	rates  []float64 // edges/s of every chunk ranked
	total  int       // edges ranked, all chunks
	wall   time.Duration
	// The quality pass, which ranks every held-out edge once.
	ranked         int
	sumRR, sumRank float64
}

func (r *run) newEvaluator(sh trainShape, trainG, testG *graph.Graph, src evalSource) *evaluator {
	ev := &evaluator{r: r, sh: sh, src: src, testG: testG, chunks: sh.evalEdges / evalChunkEdges}
	emb := src.emb
	if r.traced {
		ev.sampled = &sampledSource{inner: emb}
		emb = ev.sampled
	}
	ev.rk = eval.NewRanker(trainG.Schema, emb, src.scorers, sh.dim, graph.ComputeDegrees(trainG))
	return ev
}

// rank ranks the next n chunks of the held-out edges (round robin, each time
// against fresh candidates) and records each chunk's rate; quality also adds
// their ranks to the quality sums.
func (ev *evaluator) rank(n int, quality bool) error {
	sp := ev.r.span("eval.evaluate")
	defer sp.End()
	for ; n > 0; n-- {
		c := ev.next % ev.chunks
		chunk := ev.testG.Edges.Slice(c*evalChunkEdges, (c+1)*evalChunkEdges)
		csp := sp.Child("eval.chunk")
		start := time.Now()
		m, err := ev.rk.Evaluate(chunk, eval.Config{Mode: eval.CandidatesUniform, K: ev.sh.evalCands, Seed: ev.r.seed + uint64(ev.next)})
		d := time.Since(start)
		csp.End()
		if err != nil {
			return fmt.Errorf("evaluate: %w", err)
		}
		ev.next++
		ev.r.ops(evalChunkEdges, evalChunkEdges-m.Count)
		ev.r.check(m.Count == evalChunkEdges, "evaluate ranked %d edges of a chunk of %d", m.Count, evalChunkEdges)
		ev.rates = append(ev.rates, float64(m.Count)/d.Seconds())
		ev.total += m.Count
		ev.wall += d
		if quality {
			ev.ranked += m.Count
			ev.sumRR += m.MRR * float64(m.Count)
			ev.sumRank += m.MR * float64(m.Count)
		}
	}
	return nil
}

// report turns what was ranked into quality, eval throughput and the eval.*
// layer rows.
func (ev *evaluator) report() {
	r, sh := ev.r, ev.sh
	mrr := ev.sumRR / float64(max(ev.ranked, 1))
	meanRank := ev.sumRank / float64(max(ev.ranked, 1))
	r.check(mrr >= sh.mrrFloor, "mrr %.4f below the floor %.4f", mrr, sh.mrrFloor)
	r.set("eval.mrr", mrr, "ratio")
	r.set("eval.mean_rank", meanRank, "rank")
	if sh.rankQuality {
		r.set("quality", 1-(meanRank-1)/float64(sh.evalCands), "ratio")
		r.note("quality = 1 - (mean rank - 1)/candidates (eval.mrr is the MRR) over %d held-out edges x %d uniform candidates after %d epochs", ev.ranked, sh.evalCands, sh.qualityAt)
	} else {
		r.set("quality", mrr, "ratio")
		r.note("quality = mrr over %d held-out edges x %d uniform candidates after %d epochs", ev.ranked, sh.evalCands, sh.qualityAt)
	}
	r.set("eval.edges_per_s", rateOf(ev.rates), "1/s")
	r.note("eval.edges_per_s: %s of %d chunks of %d edges ranked across the run", rateSummary(ev.rates), len(ev.rates), evalChunkEdges)
	r.set("eval.evaluate_s", ev.wall.Seconds(), "s")
	r.set("eval.candidates_scored", float64(ev.total*sh.evalCands), "count")
	if ev.sampled != nil {
		r.set("eval.gather_busy_s", ev.sampled.sampled.Seconds()*gatherSample, "s")
		r.note("eval.gather_busy_s: 1 in %d of %d gathers timed, scaled up", gatherSample, ev.sampled.calls)
	}
}
