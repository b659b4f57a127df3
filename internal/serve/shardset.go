package serve

import (
	"fmt"
	"os"

	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// image is the bytes of one shard file and what releases them. The byte
// source is chosen at build time: openImage maps the file read-only where
// the platform has mmap (mmap_unix.go) and reads it into a private buffer
// elsewhere (mmap_other.go). Everything above it — storage.ParseLayout, the
// views — is the same code on both.
type image struct {
	b     []byte
	unmap func([]byte) error // nil: b is a private buffer
}

func (m *image) close() error {
	b, unmap := m.b, m.unmap
	m.b, m.unmap = nil, nil
	if b == nil || unmap == nil {
		return nil
	}
	return unmap(b)
}

// readImage is the private-buffer byte source.
func readImage(path string) (*image, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &image{b: b}, nil
}

// shardRows is one open shard: a count×dim read-only fp32 matrix and/or a
// quantized view of the same rows, both aliasing the file image. A v1 shard
// has fp32 only; a native v2 shard has quant only; a v1 shard with a .q.pbg
// sibling has both — the engine scans the quantized copy and re-ranks from
// fp32. The accumulator tail of the image is never viewed: it is training
// state.
type shardRows struct {
	rows  vec.Matrix // fp32 rows; valid iff fp32 is true
	fp32  bool
	quant *quantRows
	img   *image // the shard file
	qimg  *image // the sibling quant file, when attached
	count int
	dim   int
}

func (s *shardRows) close() error {
	var first error
	for _, m := range []*image{s.img, s.qimg} {
		if m != nil {
			if err := m.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.img, s.qimg = nil, nil
	s.rows = vec.Matrix{}
	s.quant = nil
	return first
}

// copyRow copies local row r into dst at the best available precision:
// fp32 when present, dequantized otherwise.
func (s *shardRows) copyRow(dst []float32, r int) {
	if s.fp32 {
		copy(dst, s.rows.Row(r))
		return
	}
	s.quant.copyRow(dst, r)
}

// rowSource is where a scan reads candidate rows from: fp32 rows that can be
// scored where they lie (a shard's mapped embedding block, an index's
// centroids), or, when quant is set, a quantized view whose rows exist as
// floats only once they are dequantized into scratch.
type rowSource struct {
	rows  vec.Matrix
	quant *quantRows
}

// fill materialises a block of the source into the first rows of dst: rows
// ids when ids is non-nil, rows [lo, lo+dst.Rows) otherwise.
//
//pbg:hotpath
func (src rowSource) fill(dst vec.Matrix, lo int, ids []int32) {
	for j := 0; j < dst.Rows; j++ {
		r := lo + j
		if ids != nil {
			r = int(ids[j])
		}
		if src.quant != nil {
			src.quant.copyRow(dst.Row(j), r)
		} else {
			copy(dst.Row(j), src.rows.Row(r))
		}
	}
}

// openShard opens the shard file at path plus, when the shard is fp32 and
// one exists, its quantized sibling copy at qpath, and checks the dimension
// the server is configured for.
func openShard(path, qpath string, dim int, open func(string) (*image, error)) (*shardRows, error) {
	sr, err := openShardFile(path, open)
	if err != nil {
		return nil, err
	}
	if sr.dim != dim {
		d := sr.dim
		sr.close()
		return nil, fmt.Errorf("serve: shard %s has dim %d, server configured for %d", path, d, dim)
	}
	if sr.fp32 && qpath != "" {
		if _, statErr := os.Stat(qpath); statErr == nil {
			qr, err := openShardFile(qpath, open)
			if err != nil {
				sr.close()
				return nil, err
			}
			if qr.quant == nil || qr.count != sr.count || qr.dim != sr.dim {
				qr.close()
				sr.close()
				return nil, fmt.Errorf("serve: quant sibling %s does not match shard %s (want a %dx%d quantized copy)", qpath, path, sr.count, sr.dim)
			}
			sr.quant = qr.quant
			sr.qimg = qr.img
		}
	}
	return sr, nil
}

// openShardFile is the one read path: the file's bytes, through
// storage.ParseLayout, to zero-copy views — the fp32 embedding block of a
// v1 file, the quantized payload of a v2 file. A mapped image is PROT_READ:
// any write through a row slice faults, which is the point — serving can
// never corrupt a checkpoint.
func openShardFile(path string, open func(string) (*image, error)) (*shardRows, error) {
	img, err := open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err) // err names the path
	}
	sr, err := viewShard(img)
	if err != nil {
		img.close()
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return sr, nil
}

func viewShard(img *image) (*shardRows, error) {
	l, err := storage.ParseLayout(img.b, int64(len(img.b)))
	if err != nil {
		return nil, err
	}
	sr := &shardRows{img: img, count: l.Count, dim: l.Dim}
	if l.Codec != storage.CodecFP32 {
		if sr.quant, err = quantViews(img.b, l); err != nil {
			return nil, err
		}
		return sr, nil
	}
	off, n := l.Embs()
	embs, err := f32View(img.b[off : off+n])
	if err != nil {
		return nil, err
	}
	sr.rows, sr.fp32 = vec.MatrixFrom(embs, l.Count, l.Dim), true
	return sr, nil
}

// ShardSet is a read-only view over every shard of a checkpoint directory.
// It is immutable after Open: hot reloads build a fresh ShardSet and swap
// it in atomically (see Server), so concurrent readers never observe a
// partially-open set.
type ShardSet struct {
	schema *graph.Schema
	dim    int
	shards []map[int]*shardRows // per entity type: partition → rows
	// exactType[t] / quantType[t]: every partition of type t has fp32 /
	// quantized rows. The engine quant-scans a destination type only when
	// quantType holds for it, and re-ranks only when exactType also holds.
	exactType  []bool
	quantType  []bool
	quantCodec storage.Codec
	mapped     int
	quantN     int
	bytes      int64
	qbytes     int64
	closed     bool
}

// OpenShardSet opens every (entity type, partition) shard of the checkpoint
// under dir, validating each header against the schema geometry. Quantized
// sibling copies (storage.QuantShardPath), where present, are attached for
// scanning, and native v2 quantized checkpoints serve directly from their
// quantized bytes.
func OpenShardSet(dir string, schema *graph.Schema, dim int) (*ShardSet, error) {
	return openShardSet(dir, schema, dim, openImage)
}

// openShardSet is OpenShardSet over an explicit byte source, so the parity
// test can run the private-buffer source on platforms that map.
func openShardSet(dir string, schema *graph.Schema, dim int, open func(string) (*image, error)) (*ShardSet, error) {
	ss := &ShardSet{schema: schema, dim: dim}
	ss.shards = make([]map[int]*shardRows, len(schema.Entities))
	ss.exactType = make([]bool, len(schema.Entities))
	ss.quantType = make([]bool, len(schema.Entities))
	for t := range schema.Entities {
		ent := &schema.Entities[t]
		ss.shards[t] = make(map[int]*shardRows, ent.NumPartitions)
		ss.exactType[t], ss.quantType[t] = true, true
		for p := 0; p < ent.NumPartitions; p++ {
			path := storage.ShardPath(dir, t, p)
			sr, err := openShard(path, storage.QuantShardPath(dir, t, p), dim, open)
			if err != nil {
				_ = ss.Close()
				return nil, err
			}
			wantRows := ent.PartitionCount(p)
			if sr.count != wantRows {
				got := sr.count
				sr.close()
				_ = ss.Close()
				return nil, fmt.Errorf("serve: shard %s has %d rows, schema expects %d", path, got, wantRows)
			}
			ss.shards[t][p] = sr
			if sr.img.unmap != nil {
				ss.mapped++
			}
			if sr.fp32 {
				ss.bytes += int64(len(sr.rows.Data)) * 4
			} else {
				ss.exactType[t] = false
			}
			if sr.quant != nil {
				if ss.quantN > 0 && sr.quant.codec != ss.quantCodec {
					c := sr.quant.codec
					_ = ss.Close() // sr is already owned by ss.shards
					return nil, fmt.Errorf("serve: mixed quantized codecs in %s (%v and %v)", dir, ss.quantCodec, c)
				}
				ss.quantCodec = sr.quant.codec
				ss.quantN++
				ss.qbytes += sr.quant.nbytes
			} else {
				ss.quantType[t] = false
			}
		}
	}
	return ss, nil
}

// Rows returns the count×dim fp32 embedding matrix of one (entity type,
// partition) shard. Valid only when the shard has fp32 rows (see
// ExactType); quant-only shards are read through CopyRow / the engine's
// block fills. The matrix is read-only — on the mmap path writing through
// it faults — and callers that feed it to comparator Prepare (which mutates
// in place) must copy rows out first.
func (ss *ShardSet) Rows(typeIdx, part int) vec.Matrix {
	return ss.shards[typeIdx][part].rows
}

// Row returns the fp32 embedding of one entity by global ID (zero-copy
// view). Valid only when the shard has fp32 rows; use CopyRow for
// codec-independent access.
func (ss *ShardSet) Row(typeIdx int, id int32) []float32 {
	ent := &ss.schema.Entities[typeIdx]
	p := ent.PartitionOf(id)
	local := ent.LocalOffset(id)
	return ss.shards[typeIdx][p].rows.Row(int(local))
}

// CopyRow copies the embedding of one entity by global ID into dst (length
// Dim), at the best precision the shard holds: fp32 when present,
// dequantized through the vec kernels otherwise.
func (ss *ShardSet) CopyRow(typeIdx int, id int32, dst []float32) {
	ent := &ss.schema.Entities[typeIdx]
	p := ent.PartitionOf(id)
	local := ent.LocalOffset(id)
	ss.shards[typeIdx][p].copyRow(dst, int(local))
}

// scanSource is what a scan of shard (typeIdx, part) reads: the quantized
// view with preferQuant when one is attached (the scan path) and always on a
// quant-only shard, the fp32 rows otherwise.
func (ss *ShardSet) scanSource(typeIdx, part int, preferQuant bool) rowSource {
	sr := ss.shards[typeIdx][part]
	if sr.quant != nil && (preferQuant || !sr.fp32) {
		return rowSource{quant: sr.quant}
	}
	return rowSource{rows: sr.rows}
}

// MaterializeRows returns the fp32 rows of one shard: the zero-copy view
// when fp32 is present, otherwise a freshly dequantized private copy (used
// by IVF construction, which clusters in fp32 space).
func (ss *ShardSet) MaterializeRows(typeIdx, part int) vec.Matrix {
	sr := ss.shards[typeIdx][part]
	if sr.fp32 {
		return sr.rows
	}
	m := vec.NewMatrix(sr.count, sr.dim)
	rowSource{quant: sr.quant}.fill(m, 0, nil)
	return m
}

// ExactType reports whether every partition of entity type t has fp32 rows
// (so quantized scans of that type can re-rank at full precision).
func (ss *ShardSet) ExactType(t int) bool { return ss.exactType[t] }

// QuantizedType reports whether every partition of entity type t has a
// quantized view (so the engine can scan it quantized).
func (ss *ShardSet) QuantizedType(t int) bool { return ss.quantType[t] }

// QuantCodec reports the codec of the quantized views (CodecFP32 when the
// set has none).
func (ss *ShardSet) QuantCodec() storage.Codec {
	if ss.quantN == 0 {
		return storage.CodecFP32
	}
	return ss.quantCodec
}

// QuantShards reports how many shards carry a quantized scan view.
func (ss *ShardSet) QuantShards() int { return ss.quantN }

// QuantBytes reports the quantized payload bytes resident or mapped.
func (ss *ShardSet) QuantBytes() int64 { return ss.qbytes }

// MappedShards reports how many shards are on the zero-copy mmap path.
func (ss *ShardSet) MappedShards() int { return ss.mapped }

// Bytes reports the total embedding bytes resident or mapped: fp32 views
// plus quantized payloads. A natively quantized checkpoint's footprint is
// QuantBytes alone — the 2–4× reduction the codec buys carries through to
// serving residency.
func (ss *ShardSet) Bytes() int64 { return ss.bytes + ss.qbytes }

// Close unmaps/releases every shard. The caller must guarantee no
// outstanding readers; Server does this with view refcounting.
func (ss *ShardSet) Close() error {
	if ss.closed {
		return nil
	}
	ss.closed = true
	var first error
	for _, parts := range ss.shards {
		for _, sr := range parts {
			if err := sr.close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
