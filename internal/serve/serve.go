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
//     per relation and each distinct question of a group is answered once
//     (a batch of skewed traffic repeats its hot sources); query embeddings
//     are gathered and transformed through the trained model operator once
//     per group, and candidates are scored in blocks through the model
//     comparators (vec.MulABtRows underneath) by one block scorer, scoreRows.
//     A block is read where it lies — a zero-copy sub-matrix of the mapped
//     shard, or the rows an index list names — and materialised into pooled
//     scratch only when something must be done to its bytes first:
//     dequantisation, or a comparator whose Prepare is not the identity.
//     Each score row is filtered against its top-K heap's root with one
//     vector pass (vec.SelectGE) and only the survivors touch the heap.
//   - An IVF approximate-nearest-neighbour index (ivf.go): the checkpoint's
//     partitions act as the coarse quantizer and each partition gets
//     k-means sub-centroids; a query probes the NProbe best-scoring lists
//     (chosen by a deterministic linear-time selection) instead of scanning
//     every row, and a batch is scanned list by list so a row is read once
//     for every query that wants it. The index serialises next to the
//     checkpoint (ivf.pbg) — ReadIVF admits only lists that partition each
//     shard's rows — and recall against the exact scan is pinned by a
//     property test.
//   - Server (server.go) + the framed front end (rpc.go): an atomically
//     hot-swappable view (shards + index + relation parameters) behind
//     TopK/Score/Rank APIs, served over internal/wire — the transport
//     internal/dist runs on: a request's payload length is held to its
//     method's bound before a byte of it is read, a batch is parsed by a
//     hand-written decoder that allocates nothing the payload does not back,
//     and Validate checks every field against the schema — and instrumented
//     through internal/obs (pbg_serve_requests_total, the plan and scan stage
//     histograms, which sum to the call's latency, work counters over the
//     distinct questions scored, index-size gauges; the transport adds
//     pbg_wire_bytes_total and pbg_wire_server_queue_ns, the time a decoded
//     request waits for its goroutine).
//
// None of this is configurable: there is one scan, and which blocks it
// copies, which probes it picks and which scores reach a heap are decided
// from the checkpoint and the batch. Its answers are bit for bit those of
// the plain scan kept in export_test.go (gather every block, offer every
// score, select probes with a heap, score every repeat), which
// TestScanMatchesReference holds it to.
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
