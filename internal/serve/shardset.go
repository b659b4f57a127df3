package serve

import (
	"fmt"
	"os"
	"unsafe"

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

// shardRows is one open shard: a count×dim read-only fp32 matrix. A v1
// shard's rows alias the file image; a native v2 shard (int8 or fp16, what
// training writes under a quantized codec) is decoded once at open into heap
// rows and its image released, so every shard is scanned as the same fp32
// rows. The accumulator tail of an image is never viewed: it is training
// state.
type shardRows struct {
	rows vec.Matrix
	img  *image // the v1 shard file the rows alias; nil for decoded rows
}

func (s *shardRows) close() error {
	var err error
	if s.img != nil {
		err = s.img.close()
	}
	s.img, s.rows = nil, vec.Matrix{}
	return err
}

// fill materialises a block of src into the first rows of dst: rows ids when
// ids is non-nil, rows [lo, lo+dst.Rows) otherwise.
//
//pbg:hotpath
func fill(dst, src vec.Matrix, lo int, ids []int32) {
	for j := 0; j < dst.Rows; j++ {
		r := lo + j
		if ids != nil {
			r = int(ids[j])
		}
		copy(dst.Row(j), src.Row(r))
	}
}

// openShard is the one read path: the file's bytes, through
// storage.ParseLayout, to rows — a zero-copy view of a v1 file's fp32
// embedding block, or a v2 file decoded by storage.Layout.Decode — checked
// against the dimension the server is configured for. A mapped image is
// PROT_READ: any write through a row slice faults, which is the point —
// serving can never corrupt a checkpoint.
func openShard(path string, dim int, open func(string) (*image, error)) (*shardRows, error) {
	img, err := open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err) // err names the path
	}
	sr, err := viewShard(img)
	if err != nil {
		img.close()
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	if d := sr.rows.Cols; d != dim {
		sr.close()
		return nil, fmt.Errorf("serve: shard %s has dim %d, server configured for %d", path, d, dim)
	}
	return sr, nil
}

func viewShard(img *image) (*shardRows, error) {
	l, err := storage.ParseLayout(img.b, int64(len(img.b)))
	if err != nil {
		return nil, err
	}
	if l.Codec != storage.CodecFP32 {
		sh, err := l.Decode(img.b)
		if err != nil {
			return nil, err
		}
		if err := img.close(); err != nil {
			return nil, err
		}
		return &shardRows{rows: vec.MatrixFrom(sh.Embs, l.Count, l.Dim)}, nil
	}
	off, n := l.Embs()
	embs, err := f32View(img.b[off : off+n])
	if err != nil {
		return nil, err
	}
	return &shardRows{rows: vec.MatrixFrom(embs, l.Count, l.Dim), img: img}, nil
}

// f32View reinterprets b as float32s. It works over mappings and heap
// buffers alike, and misalignment is reported rather than risked. Mappings
// are page-aligned, Go heap allocations at least word-aligned, and every
// block offset storage.Layout reports is 4-aligned, so the check never fires
// on an image that starts where its buffer does.
func f32View(b []byte) ([]float32, error) {
	if len(b) == 0 {
		return nil, nil
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%4 != 0 {
		return nil, fmt.Errorf("serve: block misaligned for float32 view")
	}
	return unsafe.Slice((*float32)(p), len(b)/4), nil
}

// ShardSet is a read-only view over every shard of a checkpoint directory.
// It is immutable after Open: hot reloads build a fresh ShardSet and swap
// it in atomically (see Server), so concurrent readers never observe a
// partially-open set.
type ShardSet struct {
	schema *graph.Schema
	dim    int
	shards []map[int]*shardRows // per entity type: partition → rows
	mapped int
	bytes  int64
	closed bool
}

// OpenShardSet opens every (entity type, partition) shard of the checkpoint
// under dir, validating each header against the schema geometry. fp32 (v1)
// shards are mapped; natively quantized (v2) shards are decoded to fp32 at
// open.
func OpenShardSet(dir string, schema *graph.Schema, dim int) (*ShardSet, error) {
	return openShardSet(dir, schema, dim, openImage)
}

// openShardSet is OpenShardSet over an explicit byte source, so the parity
// test can run the private-buffer source on platforms that map.
func openShardSet(dir string, schema *graph.Schema, dim int, open func(string) (*image, error)) (*ShardSet, error) {
	ss := &ShardSet{schema: schema, dim: dim}
	ss.shards = make([]map[int]*shardRows, len(schema.Entities))
	for t := range schema.Entities {
		ent := &schema.Entities[t]
		ss.shards[t] = make(map[int]*shardRows, ent.NumPartitions)
		for p := 0; p < ent.NumPartitions; p++ {
			path := storage.ShardPath(dir, t, p)
			sr, err := openShard(path, dim, open)
			if err != nil {
				_ = ss.Close()
				return nil, err
			}
			if got, want := sr.rows.Rows, ent.PartitionCount(p); got != want {
				sr.close()
				_ = ss.Close()
				return nil, fmt.Errorf("serve: shard %s has %d rows, schema expects %d", path, got, want)
			}
			ss.shards[t][p] = sr
			if sr.img != nil && sr.img.unmap != nil {
				ss.mapped++
			}
			ss.bytes += int64(len(sr.rows.Data)) * 4
		}
	}
	return ss, nil
}

// Rows returns the count×dim fp32 embedding matrix of one (entity type,
// partition) shard. The matrix is read-only — on the mmap path writing
// through it faults — and callers that feed it to comparator Prepare (which
// mutates in place) must copy rows out first.
func (ss *ShardSet) Rows(typeIdx, part int) vec.Matrix {
	return ss.shards[typeIdx][part].rows
}

// Row returns the fp32 embedding of one entity by global ID (zero-copy
// view, read-only as Rows).
func (ss *ShardSet) Row(typeIdx int, id int32) []float32 {
	ent := &ss.schema.Entities[typeIdx]
	return ss.Rows(typeIdx, ent.PartitionOf(id)).Row(int(ent.LocalOffset(id)))
}

// CopyRow copies the embedding of one entity by global ID into dst (length
// Dim).
func (ss *ShardSet) CopyRow(typeIdx int, id int32, dst []float32) {
	copy(dst, ss.Row(typeIdx, id))
}

// MappedShards reports how many shards are on the zero-copy mmap path.
func (ss *ShardSet) MappedShards() int { return ss.mapped }

// Bytes reports the total fp32 embedding bytes resident or mapped. A
// natively quantized checkpoint is held decoded, at 4 bytes a cell.
func (ss *ShardSet) Bytes() int64 { return ss.bytes }

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
