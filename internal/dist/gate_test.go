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
