package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"pbg/internal/graph"
	serving "pbg/internal/serve" // dist has a func serve
	"pbg/internal/storage"
)

// TestMalformedShardsRejectedAtEveryEntryPoint is the gate-drift regression
// table. Before storage.Layout the shard format was validated three times —
// by the file decoder, by serve's header parser and by length checks in
// PartitionServer.Put — and the copies disagreed (serve rejected rows with
// dim 0 and fields above MaxInt32; the file decoder, which training and the
// partition servers' durable restore use, accepted the former). Each
// malformed image below must be rejected, without a panic and without
// allocating what its header claims, by every way shard bytes enter the
// program: storage.ReadShardCodec on a file, serve.OpenShardSet on a
// directory, PartitionServer.Put and the client's Get-reply decode on a
// wire payload.
func TestMalformedShardsRejectedAtEveryEntryPoint(t *testing.T) {
	const dim = 4
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 3, NumPartitions: 1}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	dir := t.TempDir()
	path := storage.ShardPath(dir, 0, 0)
	ps := NewPartitionServer(schema, dim, 7, 1)
	want := GetArgs{TypeIndex: 0, Part: 0, Count: 3, Dim: dim}

	// accepts reports which entry points take the image.
	accepts := func(img []byte) (file, served, put, reply bool) {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := storage.ReadShardCodec(path)
		file = err == nil
		ss, err := serving.OpenShardSet(dir, schema, dim)
		if served = err == nil; served {
			_ = ss.Close()
		}
		put = ps.Put(PutArgs{Shard: img}, &Ack{}) == nil
		_, err = decodeGetReply(want, img)
		reply = err == nil
		return
	}

	good := map[storage.Codec][]byte{}
	for _, c := range storage.Codecs() {
		sh := storage.NewShard(0, 0, 3, dim)
		for i := range sh.Embs {
			sh.Embs[i] = float32(i) - 5.5
		}
		img, err := storage.LayoutOf(sh, c).Encode(sh)
		if err != nil {
			t.Fatal(err)
		}
		good[c] = img
		// The table means something only if its base images are accepted:
		// everywhere for fp32, and everywhere but the fp32-only wire for the
		// quantized codecs.
		file, served, put, reply := accepts(img)
		if onWire := c == storage.CodecFP32; !file || !served || put != onWire || reply != onWire {
			t.Fatalf("%v base image: file %v, serve %v, Put %v, Get reply %v", c, file, served, put, reply)
		}
	}

	type bad struct {
		name string
		img  []byte
	}
	var table []bad
	add := func(name string, img []byte) { table = append(table, bad{name, img}) }
	patch := func(img []byte, off int, v uint32) []byte {
		out := bytes.Clone(img)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	for _, c := range storage.Codecs() {
		img := good[c]
		l, err := storage.ParseLayout(img, int64(len(img)))
		if err != nil {
			t.Fatal(err)
		}
		hdr := int(l.HeaderBytes())
		// A well-tiled image whose only fault is rows without a dim: the
		// header, the scale block if the codec has one, no cells, the
		// accumulators.
		_, scaleN := l.Scales()
		_, accN := l.Acc()
		rowsNoDim := patch(img, hdr-4, 0)[:int64(hdr)+scaleN+accN]
		add(fmt.Sprintf("%v/bad magic", c), patch(img, 0, 0x50424754))
		add(fmt.Sprintf("%v/version 0", c), patch(img, 4, 0))
		add(fmt.Sprintf("%v/version 3", c), patch(img, 4, 3))
		if c != storage.CodecFP32 {
			add(fmt.Sprintf("%v/codec fp32 on v2", c), patch(img, 8, uint32(storage.CodecFP32)))
			add(fmt.Sprintf("%v/codec 3", c), patch(img, 8, 3))
			add(fmt.Sprintf("%v/codec 256", c), patch(img, 8, 256))
		}
		for i, field := range []string{"typeIndex", "part", "count", "dim"} {
			add(fmt.Sprintf("%v/%s above MaxInt32", c, field), patch(img, hdr-16+4*i, math.MaxInt32+1))
		}
		add(fmt.Sprintf("%v/rows but dim 0", c), rowsNoDim)
		add(fmt.Sprintf("%v/count*dim overflow", c), patch(patch(img, hdr-8, math.MaxInt32), hdr-4, math.MaxInt32))
		add(fmt.Sprintf("%v/absurd count", c), patch(img, hdr-8, math.MaxInt32))
		for n := 0; n < len(img); n++ {
			add(fmt.Sprintf("%v/truncated to %d", c, n), img[:n])
		}
		add(fmt.Sprintf("%v/one trailing byte", c), append(bytes.Clone(img), 0))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range table {
		file, served, put, reply := accepts(b.img)
		if file || served || put || reply {
			t.Errorf("%s accepted: file %v, serve %v, Put %v, Get reply %v", b.name, file, served, put, reply)
		}
	}
	runtime.ReadMemStats(&after)
	// Each file read allocates its 1 MiB read buffer; a header taken at its
	// word would cost gigabytes.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(table))*(2<<20); got > limit {
		t.Errorf("rejecting %d malformed images allocated %d MiB, limit %d MiB", len(table), got>>20, limit>>20)
	}
}

// TestMalformedIVFRejectedAtEveryEntryPoint is the table's row for ivf.pbg,
// the other file serving trusts: each malformed index image must be rejected,
// without a panic and without allocating what its counts claim, by both ways
// index bytes enter the program — serve.ReadIVF on a file and serve.Open on a
// checkpoint directory that holds one. Besides counts out of range that
// includes lists that do not partition a shard's rows: the scan hands list
// ids to a GEMM tile that reads them unchecked, so the gate is what stands
// between a file and an out-of-bounds load.
func TestMalformedIVFRejectedAtEveryEntryPoint(t *testing.T) {
	const dim = 4
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 6, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	dir := t.TempDir()
	for p := 0; p < 2; p++ {
		sh := storage.NewShard(0, p, 3, dim)
		for i := range sh.Embs {
			sh.Embs[i] = float32(i+p) - 5.5
		}
		if err := storage.WriteShard(storage.ShardPath(dir, 0, p), sh); err != nil {
			t.Fatal(err)
		}
	}
	path := serving.IndexPath(dir)
	accepts := func(img []byte) (file, served bool) {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := serving.ReadIVF(path, schema, dim)
		file = err == nil
		s, err := serving.Open(dir, serving.Config{Schema: schema, Dim: dim})
		if served = err == nil; served {
			_ = s.Close()
		}
		return
	}

	// The base image, by hand from the format: one type, two partitions of
	// three rows, each with two lists ({0, 2} and {1}).
	var good []byte
	u32 := func(vs ...uint32) {
		for _, v := range vs {
			good = binary.LittleEndian.AppendUint32(good, v)
		}
	}
	u32(0x50424749, 1, dim, 1) // magic "PBGI", version, dim, types
	u32(0, 2)                  // type 0, two partitions
	partAt := [2]int{}
	for p := 0; p < 2; p++ {
		partAt[p] = len(good)
		u32(2) // lists
		for i := 0; i < 2*dim; i++ {
			u32(math.Float32bits(float32(i)))
		}
		u32(2, 0, 2) // list 0: rows 0 and 2
		u32(1, 1)    // list 1: row 1
	}
	if file, served := accepts(good); !file || !served {
		t.Fatalf("base image: file %v, serve %v", file, served)
	}
	list0 := partAt[0] + 4 + 2*dim*4 // partition 0, list 0's length word

	patch := func(off int, v uint32) []byte {
		out := bytes.Clone(good)
		binary.LittleEndian.PutUint32(out[off:], v)
		return out
	}
	table := map[string][]byte{
		"bad magic":               patch(0, 0x50424753),
		"version 2":               patch(4, 2),
		"dim mismatch":            patch(8, dim+1),
		"more types than schema":  patch(12, 2),
		"absurd type count":       patch(12, math.MaxInt32),
		"type index out of range": patch(16, 1),
		"partition count":         patch(20, 3),
		"absurd list count":       patch(partAt[0], math.MaxInt32),
		"more lists than rows":    patch(partAt[0], 5),
		"absurd list length":      patch(list0, math.MaxInt32),
		"list longer than shard":  patch(list0, 4),
		"row id out of range":     patch(list0+4, 3),
		"row id negative":         patch(list0+4, math.MaxUint32),
		"row in two lists":        patch(list0+16, 0),
		"row twice in a list":     patch(list0+8, 0),
		"one trailing byte":       append(bytes.Clone(good), 0),
	}
	// Partition 0's list 1 emptied, its id word removed: well-formed, every
	// id in range and distinct, row 1 unreachable.
	table["row in no list"] = append(patch(list0+12, 0)[:list0+16], good[list0+20:]...)
	for n := 0; n < len(good); n++ {
		table[fmt.Sprintf("truncated to %d", n)] = good[:n]
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for name, img := range table {
		if file, served := accepts(img); file || served {
			t.Errorf("%s accepted: file %v, serve %v", name, file, served)
		}
	}
	runtime.ReadMemStats(&after)
	// Each read allocates its 1 MiB buffer and each Open maps two tiny shards;
	// a count taken at its word would cost gigabytes.
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(table))*(4<<20); got > limit {
		t.Errorf("rejecting %d malformed images allocated %d MiB, limit %d MiB", len(table), got>>20, limit>>20)
	}
}
