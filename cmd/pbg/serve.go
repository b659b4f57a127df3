package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"pbg/internal/serve"
)

// runServe exposes the model checkpointed in D as an online embedding
// service — memory-mapped shards, batched exact top-K and IVF approximate
// top-K over the framed RPC front end — or, with -connect, queries one.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", dirUsage+" and trained by pbg train (server)")
	listen := fs.String("listen", ":7421", "RPC listen address (server)")
	obsAddr := fs.String("obs-addr", "", obsUsage+" (server)")
	buildIndex := fs.Bool("build-index", false, "build and persist the IVF index before serving, k-means seeded by the config's seed (server)")
	nprobe := fs.Int("nprobe", 0, "IVF probe width: the server's default, or this query's (0 = serve.DefaultNProbe)")
	connect := fs.String("connect", "", "query the server at this address instead of serving")
	rel := fs.Int("rel", 0, "relation index of the query (client)")
	src := fs.Int("src", 0, "source entity id (client)")
	dst := fs.Int("dst", -1, "destination id: score and rank it instead of asking for the top K (client)")
	k := fs.Int("k", 10, "neighbours to return (client)")
	exact := fs.Bool("exact", false, "exact scan instead of the IVF index (client)")
	reload := fs.String("reload", "", "ask the server to hot-swap to this checkpoint directory (client)")
	stats := fs.Bool("stats", false, "print the server's stats (client)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect != "" {
		return query(*connect, out, *rel, int32(*src), int32(*dst), *k, *exact, *nprobe, *reload, *stats)
	}
	rd, _, err := openRun(*dir)
	if err != nil {
		return err
	}
	hub, err := startObs(*obsAddr, out)
	if err != nil {
		return err
	}
	s, err := openServer(rd, serve.Config{NProbe: *nprobe, Obs: hub}, *buildIndex)
	if err != nil {
		return err
	}
	defer s.Close()
	st, err := s.Stats()
	if err != nil {
		return err
	}
	printStats(out, st)
	front, err := serve.ListenAndServe(*listen, s)
	if err != nil {
		return err
	}
	defer front.Close()
	fmt.Fprintf(out, "rpc on %s\n", front.Addr())
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(out, "shutting down")
	return nil
}

// openServer opens a server over rd's checkpoint with the schema,
// dimension and comparator rd's config trained it under, after building the
// IVF index when asked to.
func openServer(rd *runDir, cfg serve.Config, buildIndex bool) (*serve.Server, error) {
	cfg.Schema, cfg.Dim, cfg.Comparator = rd.schema, rd.cfg.Dimension, rd.cfg.Comparator
	s, err := serve.Open(rd.dir, cfg)
	if err != nil {
		return nil, err
	}
	if buildIndex {
		if err := s.BuildIndex(serve.IVFConfig{Seed: rd.cfg.Seed}); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

func printStats(out io.Writer, st serve.Stats) {
	fmt.Fprintf(out, "serving %s: %d mapped shards (%.1f MB), index: %v (%d lists, %.1f MB), %d requests served\n",
		st.Dir, st.MappedShards, float64(st.MappedBytes)/(1<<20), st.HasIndex, st.IndexLists, float64(st.IndexBytes)/(1<<20), st.Requests)
}

// query is serve's client mode: one request to the server at addr.
func query(addr string, out io.Writer, rel int, src, dst int32, k int, exact bool, nprobe int, reloadDir string, stats bool) error {
	c, err := serve.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	switch {
	case stats:
		st, err := c.Stats()
		if err != nil {
			return err
		}
		printStats(out, st)
	case reloadDir != "":
		if err := c.Reload(reloadDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "reloaded %s\n", reloadDir)
	case dst >= 0:
		score, err := c.Score([]serve.ScoreRequest{{Rel: rel, Src: src, Dst: dst}})
		if err != nil {
			return err
		}
		rank, err := c.Rank(rel, src, dst)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "score(%d, %d -> %d) = %g  rank = %g\n", rel, src, dst, score[0], rank)
	default:
		res, err := c.TopK([]serve.TopKRequest{{Rel: rel, SrcID: src, K: k, Exact: exact, NProbe: nprobe}})
		if err != nil {
			return err
		}
		r := res[0]
		fmt.Fprintf(out, "top-%d for src %d (rel %d, scanned %d rows, probed %d lists):\n", k, src, rel, r.Scanned, r.Probed)
		for i := range r.IDs {
			fmt.Fprintf(out, "  %3d. id %-8d score %g\n", i+1, r.IDs[i], r.Scores[i])
		}
	}
	return nil
}
