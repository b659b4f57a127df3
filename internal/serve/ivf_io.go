package serve

import (
	"fmt"
	"os"
	"path/filepath"

	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/vec"
	"pbg/internal/wire"
)

// IVF index file, serialized next to the checkpoint shards:
//
//	u32 magic "PBGI" · u32 version · u32 dim · u32 ntypes
//	per type: u32 typeIndex · u32 nparts
//	  per partition: u32 nlist
//	    nlist×dim float32 centroids
//	    per list: u32 len · len int32 local row IDs
//
// All little-endian, matching the shard codec. The layout is one walk over
// wire.Fields (ivfFile.walk), which is both the writer and the reader: every
// count is held to the bytes the file has left before anything is
// allocated. ReadIVF then holds the index to the schema it will serve and
// requires each partition's lists to be a partition of its rows: the scan
// hands these ids to a GEMM tile that dereferences them (vec.MulABtRows),
// and counts on meeting every row exactly once.
const (
	ivfMagic   = 0x50424749 // "PBGI"
	ivfVersion = 1
)

// ivfFile is ivf.pbg as it lies on disk: the header words, then the indexed
// types in ascending order, each with its entity-type index.
type ivfFile struct {
	magic, version, dim int32
	types               []ivfFileType
}

type ivfFileType struct {
	index int32
	parts []ivfPart
}

// walk moves the file; cols is the centroid width the partitions' runs
// take — the index's own dim writing, the configured dim reading, which
// ReadIVF then requires the header's dim word to be.
func (m *ivfFile) walk(f *wire.Fields, cols int) {
	f.Int32(&m.magic)
	f.Int32(&m.version)
	f.Int32(&m.dim)
	wire.Slice(f, &m.types, 8, 0, func(t *ivfFileType, f *wire.Fields) {
		f.Int32(&t.index)
		wire.Slice(f, &t.parts, 4, 0, func(p *ivfPart, f *wire.Fields) {
			n := len(p.Lists)
			f.Count(&n, 4*cols+4) // a centroid and a length word per list
			f.FloatsN(&p.Centroids.Data, n*cols)
			wire.Make(f, &p.Lists, n)
			for l := range p.Lists {
				f.Int32s(&p.Lists[l])
			}
		})
	})
}

// IndexPath returns the IVF index path inside a checkpoint directory.
func IndexPath(dir string) string { return filepath.Join(dir, "ivf.pbg") }

// encodeIVF is the bytes of idx's index file.
func encodeIVF(idx *IVF) []byte {
	m := ivfFile{magic: ivfMagic, version: ivfVersion, dim: int32(idx.Dim)}
	for t, it := range idx.Types {
		if it != nil {
			m.types = append(m.types, ivfFileType{index: int32(t), parts: it.Parts})
		}
	}
	return wire.Append(nil, func(f *wire.Fields) { m.walk(f, idx.Dim) })
}

// WriteIVF persists the index atomically through storage's one writer
// (storage.WriteFileAtomic), under the shard files' crash model: a process
// crash leaves the old index or the new one, never a half-index that a
// reload would then trust. Power loss is not covered.
func WriteIVF(path string, idx *IVF) error {
	return storage.WriteFileAtomic(path, encodeIVF(idx))
}

// ReadIVF loads and validates an index against the schema geometry it will
// serve: type indices, partition counts, list lengths and row IDs must all
// be in range, and dim must match the configured embedding dimension.
func ReadIVF(path string, schema *graph.Schema, dim int) (*IVF, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	idx, err := parseIVF(b, schema, dim)
	if err != nil {
		return nil, fmt.Errorf("serve: %s: %w", path, err)
	}
	return idx, nil
}

// parseIVF decodes an index file through the walk, then holds it to the
// schema. The header's words are checked first: they decode before any
// count can fail, so a foreign or mis-sized file is named as such.
func parseIVF(b []byte, schema *graph.Schema, dim int) (*IVF, error) {
	var m ivfFile
	err := wire.Parse(b, func(f *wire.Fields) { m.walk(f, dim) })
	switch {
	case len(b) < 16:
		return nil, fmt.Errorf("ivf header: %w", err)
	case m.magic != ivfMagic:
		return nil, fmt.Errorf("bad ivf magic 0x%08x", uint32(m.magic))
	case m.version != ivfVersion:
		return nil, fmt.Errorf("unsupported ivf version %d", uint32(m.version))
	case int(m.dim) != dim:
		return nil, fmt.Errorf("ivf dim %d, server configured for %d", uint32(m.dim), dim)
	case err != nil:
		return nil, err
	case len(m.types) > len(schema.Entities):
		return nil, fmt.Errorf("ivf has %d types, schema has %d", len(m.types), len(schema.Entities))
	}
	idx := &IVF{Dim: dim, Types: make([]*ivfType, len(schema.Entities))}
	prev := -1
	for _, ft := range m.types {
		t := int(ft.index)
		switch {
		case t < 0 || t >= len(schema.Entities):
			return nil, fmt.Errorf("ivf type index %d out of range", uint32(ft.index))
		case t == prev:
			return nil, fmt.Errorf("ivf repeats type %d", t)
		case t < prev:
			return nil, fmt.Errorf("ivf lists type %d after type %d", t, prev)
		}
		prev = t
		ent := &schema.Entities[t]
		if len(ft.parts) != ent.NumPartitions {
			return nil, fmt.Errorf("ivf type %d has %d partitions, schema has %d", t, len(ft.parts), ent.NumPartitions)
		}
		it := &ivfType{Parts: ft.parts}
		for p := range it.Parts {
			part := &it.Parts[p]
			rows, nlist := ent.PartitionCount(p), len(part.Lists)
			// A list per row is the densest legal clustering; anything
			// beyond that is corruption.
			if nlist > rows+1 {
				return nil, fmt.Errorf("ivf part %d/%d has %d lists for %d rows", t, p, nlist, rows)
			}
			part.Centroids = vec.MatrixFrom(part.Centroids.Data, nlist, dim)
			listed := make([]bool, rows) // rows some list of this partition holds
			unlisted := rows
			for _, l := range part.Lists {
				for _, id := range l {
					if id < 0 || int(id) >= rows {
						return nil, fmt.Errorf("ivf row id %d out of range (partition has %d rows)", uint32(id), rows)
					}
					if listed[id] {
						return nil, fmt.Errorf("ivf part %d/%d lists row %d twice", t, p, id)
					}
					listed[id] = true
					unlisted--
				}
			}
			if unlisted != 0 {
				return nil, fmt.Errorf("ivf part %d/%d leaves %d of %d rows in no list", t, p, unlisted, rows)
			}
			it.Lists += nlist
		}
		idx.Types[t] = it
	}
	return idx, nil
}
