// Package serve is the online embedding serving layer: it answers
// score/top-K-neighbour queries against a trained checkpoint directory
// written by pbg-train / Model.Checkpoint, closing the train→serve gap —
// trained embeddings no longer dead-end in shard files.
//
// The layer is built from four pieces:
//
//   - ShardSet (shardset.go): a read-only view over the checkpoint's shard
//     files. Each file's bytes pass storage.ParseLayout — the one
//     description of the shard format — and rows are zero-copy slice views
//     into them: into the page cache on platforms with mmap, into a private
//     copy of the file elsewhere. A parity test pins that rows from both
//     byte sources are bit-identical to storage.ReadShard's.
//   - The batched scoring engine (engine.go): incoming requests are grouped
//     per relation, query embeddings are gathered and transformed through
//     the trained model operator once per group, and candidates are scored
//     in blocks through the model comparators (vec.MulABt underneath) with
//     per-worker scratch buffers reused across requests — the same
//     construction as the training hot path, read-only.
//   - An IVF approximate-nearest-neighbour index (ivf.go): the checkpoint's
//     partitions act as the coarse quantizer and each partition gets
//     k-means sub-centroids; a query probes the NProbe best-scoring lists
//     instead of scanning every row. The index serialises next to the
//     checkpoint (ivf.pbg) and recall against the exact scan is pinned by a
//     property test.
//   - Server (server.go) + the net/rpc front end (rpc.go): an atomically
//     hot-swappable view (shards + index + relation parameters) behind
//     TopK/Score/Rank APIs, served over the same net/rpc plumbing
//     internal/dist uses and instrumented through internal/obs
//     (pbg_serve_requests_total, per-stage latency histograms, index-size
//     gauges).
//
// Determinism contract: ties in top-K results are broken by
// eval.CompareScored (higher score first, then lower entity ID), the same
// convention the evaluation mid-rank logic is built on, so served
// neighbour lists are reproducible and comparable against offline eval.
package serve

import "errors"

// ErrClosed is returned by Server APIs after Close.
var ErrClosed = errors.New("serve: server closed")

// MmapAvailable reports whether shard files are memory-mapped on this
// platform (elsewhere they are read into private memory).
func MmapAvailable() bool { return mmapSupported }
