// Distributed example: the §4.2 / Figure 2 execution model, narrated. Four
// trainer "machines" (in-process nodes speaking real RPC over loopback TCP)
// lease disjoint buckets from a lock server, ship partitions through sharded
// partition servers, and sync relation parameters through an asynchronous
// parameter server. The run reports per-node work and the speedup over a
// single machine.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"pbg"
)

func main() {
	const partitions = 8
	g, err := pbg.SocialGraph(pbg.SocialGraphConfig{
		Nodes: 20000, AvgOutDegree: 10, NumPartitions: partitions, Seed: 21,
	})
	if err != nil {
		log.Fatal(err)
	}
	trainG, _, testG := pbg.Split(g, 0, 0.05, 7)
	fmt.Printf("graph: %d nodes in %d partitions, %d training edges, %d buckets\n",
		g.Schema.Entities[0].Count, partitions, trainG.Edges.Len(), partitions*partitions)

	// One worker per machine: simulated machines share this host's cores,
	// so genuine wall-clock speedup requires machines ≤ physical cores.
	baseCfg := pbg.TrainConfig{Dim: 32, Epochs: 4, Workers: 1, Seed: 1, Comparator: "cos"}

	run := func(machines int) (time.Duration, pbg.Metrics) {
		start := time.Now()
		res, err := pbg.TrainDistributed(trainG, pbg.DistributedConfig{
			Machines: machines, Train: baseCfg,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer res.Cluster.Shutdown()
		elapsed := time.Since(start)
		for e, st := range res.EpochStats {
			fmt.Printf("  epoch %d (%.2fs):", e, st.Duration.Seconds())
			for _, ns := range st.PerNode {
				fmt.Printf("  rank%d=%db/%de", ns.Rank, ns.Buckets, ns.Edges)
			}
			fmt.Println()
		}
		m, err := res.EvaluateDistributed(trainG, testG, pbg.EvalOptions{
			Candidates: 500, MaxEdges: 500, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		return elapsed, m
	}

	fmt.Println("\n--- 1 machine ---")
	t1, m1 := run(1)
	fmt.Printf("total %.2fs, %v\n", t1.Seconds(), m1)

	fmt.Println("\n--- 2 machines (lock server + sharded partition/param servers) ---")
	t2, m2 := run(2)
	fmt.Printf("total %.2fs, %v\n", t2.Seconds(), m2)

	fmt.Printf("\nspeedup: %.2fx with comparable MRR (%.3f vs %.3f) — the Table 3/4 result, bounded by this host's core count\n",
		t1.Seconds()/t2.Seconds(), m2.MRR, m1.MRR)
	if runtime.NumCPU() < 2 {
		fmt.Println("note: this host exposes a single core, so the two machines time-share it and wall-clock parity is the physical limit; run on ≥2 cores to see the speedup")
	}
}
