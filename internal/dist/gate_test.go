package dist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/partition"
	serving "pbg/internal/serve" // dist has a func serve
	"pbg/internal/storage"
	"pbg/internal/train"
	"pbg/internal/wire"
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
	ps := NewPartitionServer(schema, dim, 7)
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

// The gate table: every byte that crosses a trust boundary passes one fuzzed
// bounds gate on the path production runs.
//
//	boundary                     gate                               held by
//	shard file / serve view /    storage.ParseLayout                TestMalformedShardsRejectedAtEveryEntryPoint,
//	  Put body / Get reply                                           storage.FuzzShardLayout
//	ivf.pbg                      serve.ReadIVF                      TestMalformedIVFRejectedAtEveryEntryPoint, serve.FuzzReadIVF
//	Get/Put/Acquire RPC args     wire.Server admission + ParseWire  FuzzFrame (every dist method and reply)
//	serve RPC args / replies     wire.Server admission + ParseWire  serve.FuzzServeFrame (every serve method and reply), serve.FuzzTopKRequest
//	dist manifest                dist.ReadManifest                  FuzzManifest, TestRestoreRejectsForeignBucket
//	relations.pbg (serve, pbg    storage.ReadRelationParams         serve.TestOpenRejectsMalformedRelations, storage.FuzzReadRelations,
//	  eval, dist resume)                                             storage.TestReadRelationParams
//	edge files                   storage.ReadEdges                  storage.TestReadSizedFilesRejectMalformed, storage.FuzzReadEdges
//	run config.json              config.Parse + Config.Schema       config.TestParseRejectsByName, config.FuzzConfig

// frameGateServer serves all three services of a tiny deployment; only its
// decoding side is used.
func frameGateServer(t testing.TB) *wire.Server {
	t.Helper()
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 6, NumPartitions: 2}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	order, err := partition.Order(partition.OrderInsideOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(map[string]any{
		"LockServer":      NewLockServer(order),
		"PartitionServer": NewPartitionServer(schema, 4, 7),
		"ParamServer":     NewParamServer(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// boundOf is the request bound frameGateServer holds method m to.
func boundOf(m wire.Method) int {
	if m.Name == "PartitionServer.Put" {
		return putTokenBytes + int(storage.Layout{Count: 3, Dim: 4}.Size())
	}
	return m.MaxReq
}

// reencode is the payload msg puts on the wire, whichever shape it has.
func reencode(t *testing.T, msg any) []byte {
	t.Helper()
	switch m := msg.(type) {
	case wire.Appender:
		return m.AppendWire(nil)
	case wire.StreamWriter:
		var buf bytes.Buffer
		if err := m.WriteWire(&buf); err != nil || buf.Len() != m.WireSize() {
			t.Fatalf("%T wrote %d of %d bytes: %v", msg, buf.Len(), m.WireSize(), err)
		}
		return buf.Bytes()
	}
	t.Fatalf("%T has no encoding", msg)
	return nil
}

// FuzzFrame drives the one decoder under the distributed services with
// arbitrary bytes, through the steps a live connection takes
// (wire.Server.Decode: header, admission against the method's bound, the
// method's own parser). A frame is refused with an error, or decodes to
// arguments that re-encode to exactly the payload it carried; a header
// announcing more than its method's bound is refused whatever follows; and
// nothing it is fed makes the decoder allocate more than the one payload
// buffer its method's bound admits plus a small multiple of the bytes
// actually present. The reply parsers, which a client runs on what a server
// sends, get the same bytes and the same contract.
func FuzzFrame(f *testing.F) {
	srv := frameGateServer(f)
	frame := func(method string, msg any) []byte {
		var payload []byte
		switch m := msg.(type) {
		case wire.Appender:
			payload = m.AppendWire(nil)
		case wire.StreamWriter:
			var buf bytes.Buffer
			if err := m.WriteWire(&buf); err != nil {
				f.Fatal(err)
			}
			payload = buf.Bytes()
		}
		h := wire.Header{Method: methodByName[method].ID, ID: 5, Span: 6, Len: uint32(len(payload))}
		return append(h.Append(nil), payload...)
	}
	sh := storage.NewShard(0, 1, 3, 4)
	img, err := encodeShard(sh)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(frame("LockServer.StartEpoch", StartEpochArgs{Epoch: 1}))
	f.Add(frame("LockServer.AcquireBucket", AcquireArgs{Epoch: 1, Rank: 1, Token: 3}))
	f.Add(frame("LockServer.Heartbeat", HeartbeatArgs{Epoch: 1, Rank: 1, Token: 3}))
	f.Add(frame("LockServer.ReleaseBucket", ReleaseArgs{Epoch: 1, Token: 3, Buckets: []partition.Bucket{{P1: 1}}, Parts: []int{0, 1}}))
	f.Add(frame("LockServer.AbandonBucket", ReleaseArgs{Epoch: 1, Rank: 1}))
	f.Add(frame("LockServer.EpochState", EpochStateArgs{}))
	f.Add(frame("PartitionServer.Get", GetArgs{Part: 1, Count: 3, Dim: 4, InitScale: 1, Token: 2}))
	f.Add(frame("PartitionServer.Put", PutArgs{Shard: img, Token: 2}))
	f.Add(frame("PartitionServer.Put", PutArgs{Shard: img[:len(img)-1], Token: 2}))
	f.Add(frame("PartitionServer.Flush", FlushArgs{}))
	f.Add(frame("ParamServer.InitRel", InitRelArgs{Rel: 1, Params: []float32{1, 2}}))
	f.Add(frame("ParamServer.Sync", SyncArgs{Rel: 1, Delta: []float32{1, 2}}))
	f.Add(frame("ParamServer.Pull", PullArgs{Rel: 1}))
	f.Add(wire.Header{Method: methodByName["PartitionServer.Put"].ID, Len: wire.MaxPayload}.Append(nil))
	f.Add(wire.Header{Method: methodByName["LockServer.ReleaseBucket"].ID, Len: 24}.Append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}))
	f.Add([]byte{})

	replies := func() []wire.Parser {
		return []wire.Parser{&StartEpochReply{}, &AcquireReply{}, &EpochStateReply{}, &Ack{}, &InitRelReply{}, &SyncReply{}}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h, args, err := srv.Decode(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		limit := uint64(8*len(data) + 64<<10)
		if hh, herr := wire.ParseHeader(data); herr == nil {
			for _, m := range methods {
				if bound := boundOf(m); m.ID == hh.Method && int64(hh.Len) <= int64(bound) {
					limit += uint64(hh.Len) // the payload buffer, admitted on the header's word
				}
			}
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), got, limit)
		}
		if err == nil {
			if len(data) < wire.HeaderBytes+int(h.Len) {
				t.Fatalf("accepted a frame of %d payload bytes from %d bytes of input", h.Len, len(data))
			}
			if again := h.Append(nil); !bytes.Equal(again, data[:wire.HeaderBytes]) {
				t.Fatalf("header %x re-encodes as %x", data[:wire.HeaderBytes], again)
			}
			payload := data[wire.HeaderBytes : wire.HeaderBytes+int(h.Len)]
			if again := reencode(t, args); !bytes.Equal(again, payload) {
				t.Fatalf("method %d: %T re-encodes as %x, payload was %x", h.Method, args, again, payload)
			}
			for _, m := range methods {
				if m.ID == h.Method && int64(h.Len) > int64(boundOf(m)) {
					t.Fatalf("%s: a %d-byte payload decoded past its bound", m.Name, h.Len)
				}
			}
		}
		for _, r := range replies() {
			if r.ParseWire(data) != nil {
				continue
			}
			if again := r.(wire.Appender).AppendWire(nil); !bytes.Equal(again, data) {
				t.Fatalf("%T re-encodes as %x, payload was %x", r, again, data)
			}
		}
	})
}

// TestFrameBoundsAreTheLiveGate: for every method of every service, a header
// that announces one byte more than the method's bound is refused from the
// header alone, and the bound a Put is held to is the server's largest shard
// image — not a constant, and not what the header claims.
func TestFrameBoundsAreTheLiveGate(t *testing.T) {
	srv := frameGateServer(t)
	ps := NewPartitionServer(swapSchema(), swapDim, 1)
	if got, want := ps.maxPutBytes(), putTokenBytes+1300024; got != want {
		t.Fatalf("a d=64 server over 5 000-row shards admits Puts of %d bytes, want %d", got, want)
	}
	for _, m := range methods {
		bound := boundOf(m)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, args, err := srv.Decode(bytes.NewReader(wire.Header{Method: m.ID, Len: uint32(bound) + 1}.Append(nil)))
		runtime.ReadMemStats(&after)
		if err == nil || args != nil || !strings.Contains(err.Error(), "exceeds its bound") {
			t.Errorf("%s: %d bytes past a bound of %d: %v", m.Name, bound+1, bound, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: refusing an over-bound frame allocated %d bytes", m.Name, got)
		}
	}
}

// manifestGate is the bucket order FuzzManifest and the restore test read
// manifests against: a 2×2 grid.
func manifestGate(t testing.TB) []partition.Bucket {
	t.Helper()
	order, err := partition.Order(partition.OrderInsideOut, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return order
}

// TestRestoreRejectsForeignBucket: a manifest that marks a bucket outside
// the grid done used to be counted towards the epoch's completion — the
// resumed epoch granted three of four buckets and declared itself done. The
// gate refuses it, and NewCluster refuses to resume from it.
func TestRestoreRejectsForeignBucket(t *testing.T) {
	order := manifestGate(t)
	foreign := &Manifest{Epoch: 1, Done: []partition.Bucket{{P1: 9, P2: 9}}}
	for name, m := range map[string]*Manifest{
		"foreign bucket":    foreign,
		"negative epoch":    {Epoch: -1},
		"bucket done twice": {Epoch: 1, Done: []partition.Bucket{order[0], order[0]}},
	} {
		dir := t.TempDir()
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := ReadManifest(dir, 2, 2); err == nil || ok {
			t.Errorf("%s: passed the gate (ok=%v)", name, ok)
		}
	}
	good := t.TempDir()
	if err := WriteManifest(good, &Manifest{Epoch: 1, Done: order[:3]}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ReadManifest(good, 2, 2); err != nil || !ok {
		t.Fatalf("a well-formed manifest: ok=%v err=%v", ok, err)
	}

	// What the foreign bucket does to a lock server restored without the gate
	// (epoch 2: every partition established, so only the done count decides).
	ls := NewLockServer(order, WithRestoredEpoch(2, foreign.Done))
	ls.maxWait = 0
	granted := 0
	for {
		var rep AcquireReply
		if err := ls.AcquireBucket(AcquireArgs{Epoch: 2, Rank: 0}, &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Granted {
			break
		}
		granted++
		if err := ls.ReleaseBucket(ReleaseArgs{Epoch: 2, Rank: 0, Token: rep.Token,
			Buckets: []partition.Bucket{rep.Bucket}, Parts: rep.Bucket.Parts()}, &Ack{}); err != nil {
			t.Fatal(err)
		}
	}
	if granted != len(order)-1 {
		t.Fatalf("the unvalidated restore granted %d of %d buckets; the probe this test came from saw one fewer than the grid", granted, len(order))
	}

	// And the entry point refuses.
	dir := t.TempDir()
	if err := WriteManifest(dir, foreign); err != nil {
		t.Fatal(err)
	}
	g := chaosGraph(t)
	_, err := NewCluster(g, insideOutOrder(t, 4), ClusterConfig{Machines: 1, CheckpointDir: dir, Train: train.Config{Dim: 8, Workers: 1}})
	if err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("NewCluster over a manifest naming bucket (9,9): %v", err)
	}
}

// FuzzManifest feeds MANIFEST.json arbitrary bytes: ReadManifest must
// return an error or a manifest that satisfies the predicate a resume
// relies on — checked here independently of the gate, and by restoring a
// lock server from it and counting what it still grants — and never panic.
func FuzzManifest(f *testing.F) {
	order := manifestGate(f)
	inGrid := map[partition.Bucket]bool{}
	for _, b := range order {
		inGrid[b] = true
	}
	// The first and fifth seeds carry relation blocks, as manifests did
	// before relations.pbg held them: the gate ignores the field.
	f.Add([]byte(`{"Epoch":1,"Done":[{"P1":0,"P2":0},{"P1":1,"P2":0}],"RelParams":[{"Rel":0,"Params":[1,2,3]}]}`))
	f.Add([]byte(`{"Epoch":1,"Done":[{"P1":9,"P2":9}]}`))
	f.Add([]byte(`{"Epoch":2,"Done":[{"P1":0,"P2":0},{"P1":0,"P2":0}]}`))
	f.Add([]byte(`{"Epoch":-3}`))
	f.Add([]byte(`{"Epoch":1,"RelParams":[{"Rel":7,"Params":[1]}]}`))
	f.Add([]byte(`{"Epoch":1e99}`))
	f.Add([]byte(`{`))
	f.Add([]byte{})
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := ReadManifest(dir, 2, 2)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("a manifest that exists was reported absent")
		}
		seen := map[partition.Bucket]bool{}
		for _, b := range m.Done {
			if !inGrid[b] || seen[b] {
				t.Fatalf("accepted Done %v", m.Done)
			}
			seen[b] = true
		}
		if m.Epoch < 0 {
			t.Fatalf("accepted epoch %d", m.Epoch)
		}
		if m.Epoch == 0 {
			return // nothing is restored from a cut before the first epoch
		}
		ls := NewLockServer(order, WithRestoredEpoch(m.Epoch, m.Done))
		ls.maxWait = 0
		for granted := 0; ; granted++ {
			var rep AcquireReply
			if err := ls.AcquireBucket(AcquireArgs{Epoch: m.Epoch, Rank: 0}, &rep); err != nil {
				t.Fatal(err)
			}
			if !rep.Granted {
				if !rep.Done || granted+len(m.Done) != len(order) {
					t.Fatalf("restored from %d done buckets, granted %d of a grid of %d (done %v)", len(m.Done), granted, len(order), rep.Done)
				}
				return
			}
			if err := ls.ReleaseBucket(ReleaseArgs{Epoch: m.Epoch, Rank: 0, Token: rep.Token,
				Buckets: []partition.Bucket{rep.Bucket}, Parts: rep.Bucket.Parts()}, &Ack{}); err != nil {
				t.Fatal(err)
			}
		}
	})
}
