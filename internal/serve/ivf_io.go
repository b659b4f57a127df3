package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"pbg/internal/graph"
	"pbg/internal/storage"
	"pbg/internal/vec"
)

// IVF index file, serialized next to the checkpoint shards:
//
//	u32 magic "PBGI" · u32 version · u32 dim · u32 ntypes
//	per type: u32 typeIndex · u32 nparts
//	  per partition: u32 nlist
//	    nlist×dim float32 centroids
//	    per list: u32 len · len int32 local row IDs
//
// All little-endian, matching the shard codec. ReadIVF validates every
// count against the schema before allocating, so a corrupt or truncated
// file errors instead of panicking or ballooning memory, and requires each
// partition's lists to be a partition of its rows: the scan hands these ids
// to a GEMM tile that dereferences them (vec.MulABtRows), and counts on
// meeting every row exactly once.
const (
	ivfMagic   = 0x50424749 // "PBGI"
	ivfVersion = 1
)

// IndexPath returns the IVF index path inside a checkpoint directory.
func IndexPath(dir string) string { return filepath.Join(dir, "ivf.pbg") }

// WriteIVF persists the index atomically through storage's one writer
// (storage.WriteFileBuffered), under the shard files' crash model: a process
// crash leaves the old index or the new one, never a half-index that a
// reload would then trust. Power loss is not covered.
func WriteIVF(path string, idx *IVF) error {
	return storage.WriteFileBuffered(path, func(w *bufio.Writer) error {
		ntypes := 0
		for _, it := range idx.Types {
			if it != nil {
				ntypes++
			}
		}
		if err := writeU32s(w, ivfMagic, ivfVersion, uint32(idx.Dim), uint32(ntypes)); err != nil {
			return err
		}
		for t, it := range idx.Types {
			if it == nil {
				continue
			}
			if err := writeU32s(w, uint32(t), uint32(len(it.Parts))); err != nil {
				return err
			}
			for _, p := range it.Parts {
				if err := writeU32s(w, uint32(len(p.Lists))); err != nil {
					return err
				}
				if err := writeFloats(w, p.Centroids.Data); err != nil {
					return err
				}
				for _, l := range p.Lists {
					if err := writeU32s(w, uint32(len(l))); err != nil {
						return err
					}
					for _, id := range l {
						if err := writeU32s(w, uint32(id)); err != nil {
							return err
						}
					}
				}
			}
		}
		return nil
	})
}

// ReadIVF loads and validates an index against the schema geometry it will
// serve: type indices, partition counts, list lengths and row IDs must all
// be in range, and dim must match the configured embedding dimension.
func ReadIVF(path string, schema *graph.Schema, dim int) (*IVF, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)

	var hdr [4]uint32
	if err := readU32s(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("serve: ivf header: %w", err)
	}
	if hdr[0] != ivfMagic {
		return nil, fmt.Errorf("serve: bad ivf magic 0x%08x", hdr[0])
	}
	if hdr[1] != ivfVersion {
		return nil, fmt.Errorf("serve: unsupported ivf version %d", hdr[1])
	}
	if int(hdr[2]) != dim {
		return nil, fmt.Errorf("serve: ivf dim %d, server configured for %d", hdr[2], dim)
	}
	ntypes := int(hdr[3])
	if ntypes > len(schema.Entities) {
		return nil, fmt.Errorf("serve: ivf has %d types, schema has %d", ntypes, len(schema.Entities))
	}
	idx := &IVF{Dim: dim, Types: make([]*ivfType, len(schema.Entities))}
	for i := 0; i < ntypes; i++ {
		var th [2]uint32
		if err := readU32s(r, th[:]); err != nil {
			return nil, fmt.Errorf("serve: ivf type header: %w", err)
		}
		t, nparts := int(th[0]), int(th[1])
		if t >= len(schema.Entities) {
			return nil, fmt.Errorf("serve: ivf type index %d out of range", t)
		}
		if idx.Types[t] != nil {
			return nil, fmt.Errorf("serve: ivf repeats type %d", t)
		}
		ent := &schema.Entities[t]
		if nparts != ent.NumPartitions {
			return nil, fmt.Errorf("serve: ivf type %d has %d partitions, schema has %d", t, nparts, ent.NumPartitions)
		}
		it := &ivfType{Parts: make([]ivfPart, nparts)}
		for p := 0; p < nparts; p++ {
			partRows := ent.PartitionCount(p)
			var nl [1]uint32
			if err := readU32s(r, nl[:]); err != nil {
				return nil, fmt.Errorf("serve: ivf part header: %w", err)
			}
			nlist := int(nl[0])
			// A list per row is the densest legal clustering; anything
			// beyond that is corruption, and bounding it here bounds the
			// centroid allocation below.
			if nlist > partRows+1 || nlist < 0 {
				return nil, fmt.Errorf("serve: ivf part %d/%d has %d lists for %d rows", t, p, nlist, partRows)
			}
			cent := vec.NewMatrix(nlist, dim)
			if err := readFloats(r, cent.Data); err != nil {
				return nil, fmt.Errorf("serve: ivf centroids: %w", err)
			}
			lists := make([][]int32, nlist)
			listed := make([]bool, partRows) // rows some list of this partition holds
			unlisted := partRows
			for l := range lists {
				var ll [1]uint32
				if err := readU32s(r, ll[:]); err != nil {
					return nil, fmt.Errorf("serve: ivf list header: %w", err)
				}
				n := int(ll[0])
				if n > partRows {
					return nil, fmt.Errorf("serve: ivf list has %d ids for a %d-row partition", n, partRows)
				}
				ids := make([]int32, n)
				for j := range ids {
					var v [1]uint32
					if err := readU32s(r, v[:]); err != nil {
						return nil, fmt.Errorf("serve: ivf list ids: %w", err)
					}
					if v[0] >= uint32(partRows) {
						return nil, fmt.Errorf("serve: ivf row id %d out of range (partition has %d rows)", v[0], partRows)
					}
					if listed[v[0]] {
						return nil, fmt.Errorf("serve: ivf part %d/%d lists row %d twice", t, p, v[0])
					}
					listed[v[0]] = true
					unlisted--
					ids[j] = int32(v[0])
				}
				lists[l] = ids
			}
			if unlisted != 0 {
				return nil, fmt.Errorf("serve: ivf part %d/%d leaves %d of %d rows in no list", t, p, unlisted, partRows)
			}
			it.Parts[p] = ivfPart{Centroids: cent, Lists: lists}
			it.Lists += nlist
		}
		idx.Types[t] = it
	}
	// Trailing garbage means the file is not what the writer produced.
	if _, err := r.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("serve: ivf file has trailing bytes")
	}
	return idx, nil
}

func writeU32s(w *bufio.Writer, vs ...uint32) error {
	var b [4]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint32(b[:], v)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func readU32s(r *bufio.Reader, out []uint32) error {
	var b [4]byte
	for i := range out {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return err
		}
		out[i] = binary.LittleEndian.Uint32(b[:])
	}
	return nil
}

func writeFloats(w *bufio.Writer, fs []float32) error {
	var b [4]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(f))
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

func readFloats(r *bufio.Reader, out []float32) error {
	var b [4]byte
	for i := range out {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return err
		}
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[:]))
	}
	return nil
}
