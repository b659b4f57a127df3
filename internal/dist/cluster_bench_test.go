package dist

import (
	"testing"

	"pbg/internal/datagen"
	"pbg/internal/partition"
	"pbg/internal/train"
)

// BenchmarkClusterEpoch runs epochs of the benchmark's social_dist shape —
// 20 000 nodes, 4×4 buckets, d=64, two trainers with one worker each, over
// loopback RPC — and reports what a bucket transition costs: partition
// fetches and write-backs per epoch (28 each when every bucket swaps both
// its partitions, 12–13 with the partition consecutive buckets share kept on
// the trainer), the share of trainer time spent on the lock server, and
// edges per second.
func BenchmarkClusterEpoch(b *testing.B) {
	const parts = 4
	g, err := datagen.Social(datagen.SocialConfig{Nodes: 20000, AvgOutDegree: 10, NumPartitions: parts, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	order, err := partition.Order(partition.OrderInsideOut, parts, parts, 0)
	if err != nil {
		b.Fatal(err)
	}
	cl, err := NewCluster(g, order, ClusterConfig{
		Machines: 2, Seed: 2,
		Train: train.Config{Dim: 64, ChunkSize: 50, UniformNegs: 50, Workers: 1, Seed: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Shutdown()
	if _, err := cl.RunEpoch(); err != nil { // warm-up: lazy shard initialisation
		b.Fatal(err)
	}
	var sum EpochStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.RunEpoch()
		if err != nil {
			b.Fatal(err)
		}
		sum.Edges += st.Edges
		sum.PartitionIO += st.PartitionIO
		sum.Puts += st.Puts
		sum.LeaseWait += st.LeaseWait
		sum.Duration += st.Duration
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(sum.PartitionIO)/n, "fetches/epoch")
	b.ReportMetric(float64(sum.Puts)/n, "puts/epoch")
	// LeaseWait sums both trainers' waits; Duration is the epochs' wall time.
	b.ReportMetric(sum.LeaseWait.Seconds()/(2*sum.Duration.Seconds()), "leasewait-share")
	b.ReportMetric(float64(sum.Edges)/sum.Duration.Seconds(), "edges/s")
}
