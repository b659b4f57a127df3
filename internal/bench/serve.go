package bench

import (
	"fmt"
	"os"
	"time"

	"pbg/internal/datagen"
	"pbg/internal/obs"
	"pbg/internal/serve"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// ServeSweep load-tests the online serving layer on a freshly trained
// social checkpoint: exact top-K at batch 1 and 32, IVF top-K at batch 32,
// and the same IVF batch over the RPC front end. QPS is wall-clock
// queries per second; p99 is read back from the server's own
// pbg_serve_latency_s{api="topk"} histogram — the same obs plumbing a
// production dashboard would scrape — and recall@10 compares each row's
// answers against the exact answers for the identical query stream.
// xexact_b32 is each row's QPS over the exact_b32 row's: on ivf_b32 it is what
// the index buys at the batch size both paths share (ROADMAP's bar is 1.5).
// short trims training epochs and the query count to CI size.
func ServeSweep(s Scale, short bool) (*Report, error) {
	const parts = 4
	const k = 10
	epochs, queries := 4, 512
	if short {
		epochs, queries = 1, 96
	}

	g, err := datagen.Social(datagen.SocialConfig{
		Nodes: s.SocialNodes, AvgOutDegree: s.SocialDeg,
		NumPartitions: parts, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "pbg-serve-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	// Train straight into a DiskStore at dir: the drained store IS the
	// checkpoint's shard layout, so only relations.pbg remains to write.
	store, err := storage.NewDiskStore(dir, g.Schema, s.Dim, s.Seed+1, 1)
	if err != nil {
		return nil, err
	}
	tr, err := train.New(g, store, train.Config{
		Dim: s.Dim, Epochs: epochs, Workers: s.Workers, Seed: s.Seed,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tr.Train(nil); err != nil {
		return nil, err
	}
	if err := store.Close(); err != nil {
		return nil, err
	}
	rs := &storage.RelationState{}
	for r := range g.Schema.Relations {
		params := tr.RelParams(r)
		rs.Params = append(rs.Params, params)
		rs.Acc = append(rs.Acc, make([]float32, len(params)))
	}
	if err := storage.WriteRelations(dir+"/relations.pbg", rs); err != nil {
		return nil, err
	}

	// Build the IVF index once, next to the checkpoint; every workload
	// below reopens the same directory.
	{
		srv, err := serve.Open(dir, serve.Config{Schema: g.Schema, Dim: s.Dim})
		if err != nil {
			return nil, err
		}
		if err := srv.BuildIndex(serve.IVFConfig{Seed: s.Seed}); err != nil {
			_ = srv.Close()
			return nil, err
		}
		_ = srv.Close()
	}

	// One deterministic query stream shared by every row.
	srcs := make([]int32, queries)
	for i := range srcs {
		srcs[i] = int32((i*37 + 11) % s.SocialNodes)
	}

	// Exact answers for the stream, used as the recall reference.
	exact := make([][]int32, queries)
	{
		srv, err := serve.Open(dir, serve.Config{Schema: g.Schema, Dim: s.Dim})
		if err != nil {
			return nil, err
		}
		for i, src := range srcs {
			res, err := srv.TopK([]serve.TopKRequest{{Rel: 0, SrcID: src, K: k, Exact: true}})
			if err != nil {
				_ = srv.Close()
				return nil, err
			}
			exact[i] = res[0].IDs
		}
		_ = srv.Close()
	}

	workloads := []struct {
		label string
		batch int
		exact bool
		rpc   bool
	}{
		{"exact_b1", 1, true, false},
		{"exact_b32", 32, true, false},
		{"ivf_b32", 32, false, false},
		{"rpc_ivf_b32", 32, false, true},
	}

	rep := &Report{
		ID:    "serve",
		Title: "online serving: batched top-K, exact vs IVF, local vs RPC",
		Notes: fmt.Sprintf("%d nodes, dim %d, K=%d, %d queries; p99 from pbg_serve_latency_s histogram", s.SocialNodes, s.Dim, k, queries),
	}
	for _, wl := range workloads {
		hub := obs.NewQuietHub()
		srv, err := serve.Open(dir, serve.Config{Schema: g.Schema, Dim: s.Dim, Obs: hub})
		if err != nil {
			return nil, err
		}
		var client *serve.Client
		var front *serve.RPCServer
		if wl.rpc {
			if front, err = serve.ListenAndServe("127.0.0.1:0", srv); err != nil {
				_ = srv.Close()
				return nil, err
			}
			if client, err = serve.Dial(front.Addr()); err != nil {
				_ = front.Close()
				_ = srv.Close()
				return nil, err
			}
		}

		scanned, hits := 0, 0
		start := time.Now()
		for lo := 0; lo < queries; lo += wl.batch {
			hi := lo + wl.batch
			if hi > queries {
				hi = queries
			}
			reqs := make([]serve.TopKRequest, 0, hi-lo)
			for _, src := range srcs[lo:hi] {
				reqs = append(reqs, serve.TopKRequest{Rel: 0, SrcID: src, K: k, Exact: wl.exact})
			}
			var res []serve.TopKResult
			if wl.rpc {
				res, err = client.TopK(reqs)
			} else {
				res, err = srv.TopK(reqs)
			}
			if err != nil {
				_ = srv.Close()
				return nil, err
			}
			for i, r := range res {
				scanned += r.Scanned
				want := exact[lo+i]
				got := map[int32]bool{}
				for _, id := range r.IDs {
					got[id] = true
				}
				for _, id := range want {
					if got[id] {
						hits++
					}
				}
			}
		}
		elapsed := time.Since(start)

		snap := hub.Reg.Snapshot()
		p99 := snap.Histograms[`pbg_serve_latency_s{api="topk"}`].Quantile(0.99)
		rep.Rows = append(rep.Rows, Row{Label: wl.label, Values: map[string]float64{
			"QPS":        float64(queries) / seconds(elapsed),
			"p99_ms":     p99 * 1000,
			"recall@10":  float64(hits) / float64(queries*k),
			"rows/query": float64(scanned) / float64(queries),
		}})

		if client != nil {
			_ = client.Close()
		}
		if front != nil {
			_ = front.Close()
		}
		_ = srv.Close()
	}
	if base, ok := rep.FindRow("exact_b32"); ok && base.Value("QPS") > 0 {
		for _, r := range rep.Rows {
			r.Values["xexact_b32"] = r.Value("QPS") / base.Value("QPS")
		}
	}
	return rep, nil
}
