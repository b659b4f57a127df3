package serve_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbg/internal/obs"
	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
)

// TestConcurrentMixedRequestsWithReload is the -race satellite: goroutines
// hammer one Server with mixed top-K/score/rank traffic while another
// goroutine hot-reloads the checkpoint repeatedly. Every response must be
// internally consistent; no request may error with anything but ErrClosed
// and none may observe a torn view (the race detector guards the rest).
func TestConcurrentMixedRequestsWithReload(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s := openServer(t, f)
	if err := s.BuildIndex(serve.IVFConfig{Seed: 5}); err != nil {
		t.Fatal(err)
	}
	oracle := f.NewOracle(t)
	// Exact results are stable across reloads of the same checkpoint, so
	// every worker can verify against one oracle snapshot.
	const workers = 8
	const iters = 30
	var workerWg, reloadWg sync.WaitGroup
	errs := make(chan error, workers+1)
	stop := make(chan struct{})

	reloadWg.Add(1)
	go func() {
		defer reloadWg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Reload(""); err != nil {
				errs <- err
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		workerWg.Add(1)
		go func(w int) {
			defer workerWg.Done()
			reqs := f.Requests(uint64(1000+w), iters, 10, w%2 == 0)
			for i, req := range reqs {
				switch i % 3 {
				case 0:
					res, err := s.TopK([]serve.TopKRequest{req})
					if err != nil {
						errs <- err
						return
					}
					if req.Exact {
						wantIDs, _ := oracle.TopK(req.Rel, req.SrcID, nil, req.K)
						for j := range wantIDs {
							if res[0].IDs[j] != wantIDs[j] {
								t.Errorf("worker %d: exact top-K diverged from oracle mid-reload", w)
								return
							}
						}
					}
				case 1:
					dst := (req.SrcID + 3) % int32(f.Cfg.Nodes)
					got, err := s.Score([]serve.ScoreRequest{{Rel: req.Rel, Src: req.SrcID, Dst: dst}})
					if err != nil {
						errs <- err
						return
					}
					if want := oracle.Score(req.Rel, req.SrcID, dst); got[0] != want {
						t.Errorf("worker %d: score diverged from oracle mid-reload", w)
						return
					}
				case 2:
					if _, err := s.Rank(req.Rel, req.SrcID, (req.SrcID+9)%int32(f.Cfg.Nodes)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	// Let every request worker finish under live reload churn, then stop
	// the reloader.
	workerWg.Wait()
	close(stop)
	reloadWg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestHotSwapNeverTearsAView reloads between two checkpoints with visibly
// different embeddings while readers assert that every single response is
// consistent with exactly one of the two checkpoints — never a mixture.
func TestHotSwapNeverTearsAView(t *testing.T) {
	fA := servetest.Shared(t, servetest.FixtureConfig{Seed: 41})
	fB := servetest.Shared(t, servetest.FixtureConfig{Seed: 42})
	// Same geometry, different training seeds → same schema, different rows.
	s := openServer(t, fA)
	oracleA := fA.NewOracle(t)
	oracleB := fB.NewOracle(t)

	var flips atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		dirs := []string{fB.Dir, fA.Dir}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Reload(dirs[i%2]); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
			flips.Add(1)
		}
	}()

	// Probe until the reloader has demonstrably swapped a few times — the
	// main goroutine can otherwise outrun the reloader's first iteration
	// and the test would assert nothing. Deadline-bounded so a stuck
	// reloader fails fast instead of hanging.
	const minProbes = 200
	deadline := time.Now().Add(20 * time.Second)
	mismatches, probes := 0, 0
	for i := 0; i < minProbes || (flips.Load() < 3 && time.Now().Before(deadline)); i++ {
		probes++
		src := int32(i % fA.Cfg.Nodes)
		dst := int32((i*7 + 3) % fA.Cfg.Nodes)
		got, err := s.Score([]serve.ScoreRequest{{Rel: 0, Src: src, Dst: dst}})
		if err != nil {
			t.Fatal(err)
		}
		a := oracleA.Score(0, src, dst)
		b := oracleB.Score(0, src, dst)
		if got[0] != a && got[0] != b {
			mismatches++
		}
	}
	close(stop)
	wg.Wait()
	if mismatches > 0 {
		t.Fatalf("%d of %d responses matched neither checkpoint — torn view", mismatches, probes)
	}
	if flips.Load() == 0 {
		t.Fatal("reloader never completed a swap; test exercised nothing")
	}
}

// TestCloseDrainsInFlight pins the lifecycle: Close rejects new requests
// with ErrClosed while already-admitted requests complete.
func TestCloseDrainsInFlight(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	s, err := serve.Open(f.Dir, f.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK([]serve.TopKRequest{{Rel: 0, SrcID: 1, K: 3, Exact: true}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK([]serve.TopKRequest{{Rel: 0, SrcID: 1, K: 3, Exact: true}}); err == nil {
		t.Fatal("TopK after Close did not error")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestServeMetrics pins the obs wiring: request counters, latency
// histograms and footprint gauges must move when traffic flows.
func TestServeMetrics(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	hub := obs.NewQuietHub()
	cfg := f.ServerConfig()
	cfg.Obs = hub
	s, err := serve.Open(f.Dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.BuildIndex(serve.IVFConfig{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	reqs := f.Requests(51, 8, 5, false)
	reqs = append(reqs, reqs[0], reqs[1], reqs[0]) // three of eleven queries repeat another
	res, err := s.TopK(reqs)
	if err != nil {
		t.Fatal(err)
	}
	// A mixed batch books each group's planning and scanning too.
	if _, err := s.TopK(append(f.Requests(52, 6, 5, true), reqs...)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Score([]serve.ScoreRequest{{Rel: 0, Src: 1, Dst: 2}}); err != nil {
		t.Fatal(err)
	}
	snap := hub.Reg.Snapshot()
	if snap.Counters[`pbg_serve_requests_total{api="topk"}`] == 0 {
		t.Fatal("topk request counter did not move")
	}
	scored, gathered := snap.Counters[`pbg_serve_rows_scored_total`], snap.Counters[`pbg_serve_rows_gathered_total`]
	if scored == 0 {
		t.Fatal("rows-scored counter did not move")
	}
	if gathered == 0 || gathered >= scored {
		t.Fatalf("rows-gathered counter reads %d for %d rows scored; a batch shares the rows it reads", gathered, scored)
	}
	// The work counters count work done: a repeated query adds to deduped, not
	// to rows scored.
	if got := snap.Counters[`pbg_serve_queries_deduped_total`]; got != 6 {
		t.Fatalf("deduped counter reads %d for two batches that each repeat three queries", got)
	}
	distinct := 0
	for i := range res[:8] {
		distinct += res[i].Scanned
	}
	if exact := int64(6 * f.Cfg.Nodes); scored != 2*int64(distinct)+exact {
		t.Fatalf("rows-scored counter reads %d, want %d: the distinct index queries' rows twice and %d for the exact ones", scored, 2*int64(distinct)+exact, exact)
	}
	// The stage split closes: planning (validation, query gather, dedupe,
	// centroid scores, probe selection, inversion) and scanning (list scoring,
	// selection, re-rank) account for the call.
	lat := snap.Histograms[`pbg_serve_latency_s{api="topk"}`]
	plan, scan := snap.Histograms[`pbg_serve_stage_s{stage="plan"}`], snap.Histograms[`pbg_serve_stage_s{stage="scan"}`]
	if plan.Count != lat.Count || scan.Count != lat.Count || plan.Sum <= 0 || scan.Sum <= 0 {
		t.Fatalf("stage histograms: plan %d obs %.3gs, scan %d obs %.3gs for %d calls", plan.Count, plan.Sum, scan.Count, scan.Sum, lat.Count)
	}
	if share := (plan.Sum + scan.Sum) / lat.Sum; share < 0.97 || share > 1.0001 {
		t.Fatalf("plan %.3gs + scan %.3gs is %.3f of the %.3gs the calls took, want [0.97, 1]", plan.Sum, scan.Sum, share, lat.Sum)
	}
	// Index planning is not a rounding error of the call: it scores every
	// centroid and selects probes, which the split used to book as scan.
	if plan.Sum < 0.02*lat.Sum {
		t.Fatalf("plan stage is %.4f of the calls' time", plan.Sum/lat.Sum)
	}
	if h := snap.Histograms[`pbg_serve_latency_s{api="topk"}`]; h.Count == 0 {
		t.Fatal("topk latency histogram is empty")
	} else if h.Quantile(0.99) <= 0 {
		t.Fatal("p99 of a non-empty histogram is not positive")
	}
	if snap.Gauges[`pbg_serve_index_lists`] == 0 {
		t.Fatal("index-lists gauge not published")
	}
	if serve.MmapAvailable() && snap.Gauges[`pbg_serve_mapped_shards`] == 0 {
		t.Fatal("mapped-shards gauge not published")
	}
}
