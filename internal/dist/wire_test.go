package dist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/partition"
	serving "pbg/internal/serve" // dist has a func serve
	"pbg/internal/storage"
	"pbg/internal/wire"
)

// swapSchema is the benchmark's social_dist shard shape: 20 000 nodes in 4
// partitions, so a d=64 shard image is 1 300 024 bytes.
func swapSchema() *graph.Schema {
	return graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 20000, NumPartitions: 4}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
}

const swapDim = 64

// wireMessages is one value of every message that crosses the wire, with
// every field set to something its zero value is not.
func wireMessages() []wire.Flat {
	deadline := time.Unix(1700000000, 123456789)
	buckets := []partition.Bucket{{P1: 1, P2: 2}, {P1: 3, P2: 0}}
	return []wire.Flat{
		&StartEpochArgs{Epoch: 7},
		&StartEpochReply{Epoch: 7, Pending: 16},
		&AcquireArgs{Epoch: 3, Rank: 1, Token: 1<<63 + 9},
		&AcquireReply{Granted: true, Bucket: partition.Bucket{P1: 2, P2: 3}, Done: true, Token: 44, TTL: 1500 * time.Millisecond},
		&ReleaseArgs{Epoch: 3, Rank: 1, Token: 44, Buckets: buckets, Parts: []int{0, 3}},
		&HeartbeatArgs{Epoch: 3, Rank: 1, Token: 44},
		&EpochStateArgs{},
		&EpochStateReply{Epoch: 2, Done: buckets, Leases: []LeaseInfo{
			{Rank: 1, Bucket: partition.Bucket{P1: 1, P2: 1}, Token: 5, Deadline: deadline, Uncommitted: true},
			{Rank: 0, Bucket: partition.Bucket{P1: 0, P2: 2}, Token: 6},
		}},
		&Ack{},
		&GetArgs{TypeIndex: 1, Part: 2, Count: 5000, Dim: 64, InitScale: 0.25, Token: 12},
		&FlushArgs{},
		&InitRelArgs{Rel: 2, Params: []float32{1, -2.5, float32(math.Pi)}},
		&InitRelReply{Params: []float32{4, 5}, Version: -3},
		&SyncArgs{Rel: 1, Delta: []float32{0.5}},
		&SyncReply{Params: []float32{7, 8, 9}, Version: 1 << 40},
		&PullArgs{Rel: 4},
	}
}

// A Put as an in-process client would send it — token, then the image it
// already holds — so the tests can write the bytes PutArgs.ReadWire reads.
func (a PutArgs) WireSize() int { return putTokenBytes + len(a.Shard) }

func (a PutArgs) WriteWire(w io.Writer) error {
	if _, err := w.Write(binary.LittleEndian.AppendUint64(nil, a.Token)); err != nil {
		return err
	}
	_, err := w.Write(a.Shard)
	return err
}

// TestWireStructsRoundTrip holds every flat message to what gob used to
// guarantee: the value that arrives is the value that was sent, field for
// field (a deadline as an instant — its monotonic reading never crossed) —
// and to what gob did not: one encoding per value.
func TestWireStructsRoundTrip(t *testing.T) {
	for _, msg := range wireMessages() {
		enc := wire.Append(nil, msg.Fields)
		back := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wire.Flat)
		if err := wire.Parse(enc, back.Fields); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if es, ok := back.(*EpochStateReply); ok {
			want := msg.(*EpochStateReply)
			for i := range es.Leases {
				if !es.Leases[i].Deadline.Equal(want.Leases[i].Deadline) {
					t.Fatalf("lease %d deadline %v, sent %v", i, es.Leases[i].Deadline, want.Leases[i].Deadline)
				}
				es.Leases[i].Deadline = want.Leases[i].Deadline
			}
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("%T arrived as %+v, sent %+v", msg, back, msg)
		}
		if again := wire.Append(nil, back.Fields); !bytes.Equal(again, enc) {
			t.Fatalf("%T re-encodes differently", msg)
		}
		if len(enc) > 0 {
			if err := wire.Parse(enc[:len(enc)-1], back.Fields); err == nil {
				t.Fatalf("%T parsed a truncated payload", msg)
			}
		}
		if err := wire.Parse(append(enc, 0), back.Fields); err == nil {
			t.Fatalf("%T parsed a payload with a trailing byte", msg)
		}
	}
	// The two stream messages, through a buffer: token and image intact.
	sh := storage.NewShard(0, 1, 5, 4)
	for i := range sh.Embs {
		sh.Embs[i] = float32(i) - 3
	}
	img, err := encodeShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	out := shardOut{sh: sh, token: 77}
	if err := out.WriteWire(&buf); err != nil || buf.Len() != out.WireSize() {
		t.Fatalf("shardOut wrote %d of %d bytes: %v", buf.Len(), out.WireSize(), err)
	}
	var put PutArgs
	if err := put.ReadWire(bytes.NewReader(buf.Bytes()), buf.Len()); err != nil || put.Token != 77 || !bytes.Equal(put.Shard, img) {
		t.Fatalf("PutArgs read token %d, %d image bytes: %v", put.Token, len(put.Shard), err)
	}
	var same bytes.Buffer
	if err := put.WriteWire(&same); err != nil || !bytes.Equal(same.Bytes(), buf.Bytes()) {
		t.Fatalf("PutArgs and shardOut write different payloads (%v)", err)
	}
	in := shardIn{want: GetArgs{TypeIndex: 0, Part: 1, Count: 5, Dim: 4}}
	if err := in.ReadWire(bytes.NewReader(img), len(img)); err != nil || !reflect.DeepEqual(in.sh, sh) {
		t.Fatalf("shardIn read %+v: %v", in.sh, err)
	}
	wrong := shardIn{want: GetArgs{TypeIndex: 0, Part: 2, Count: 5, Dim: 4}}
	if err := wrong.ReadWire(bytes.NewReader(img), len(img)); err == nil || wrong.sh != nil {
		t.Fatal("shardIn accepted a shard that was not the one asked for")
	}
}

// serveMessages is one value of each of serve's flat messages with every
// field set to something its zero value is not.
func serveMessages() []wire.Flat {
	return []wire.Flat{
		&serving.TopKArgs{Reqs: []serving.TopKRequest{
			{Rel: 1, SrcID: 3, Vector: []float32{0.5, -1}, K: 10, Exact: true, NProbe: 4},
			{Rel: 2, SrcID: -7, Vector: []float32{2}, K: 1, Exact: true, NProbe: -1},
		}},
		&serving.TopKReply{Results: []serving.TopKResult{
			{IDs: []int32{4, -2}, Scores: []float32{0.75, -0.5}, Scanned: 100, Probed: 3},
			{IDs: []int32{9}, Scores: []float32{1}, Scanned: math.MaxInt, Probed: -1},
		}},
		&serving.ScoreArgs{Reqs: []serving.ScoreRequest{{Rel: 1, Src: 2, Dst: 3}, {Rel: 4, Src: -5, Dst: 6}}},
		&serving.ScoreReply{Scores: []float32{1.5, -2, float32(math.Inf(1))}},
		&serving.RankArgs{Rel: 3, Src: 4, Dst: -5},
		&serving.RankReply{Rank: 2.5},
		&serving.ReloadArgs{Dir: "run/ckpt"},
		&serving.StatsReply{Stats: serving.Stats{Dir: "run", MappedShards: 4, MappedBytes: 1 << 20, HasIndex: true,
			IndexBytes: 4096, IndexLists: 16, Requests: 99}},
	}
}

// TestWireBytesMatchParent pins every flat message's encoding, byte for
// byte: nodes built from different commits must keep understanding each
// other, so a change to any message's bytes has to be deliberate. Serve's
// messages also get TestWireStructsRoundTrip's checks: the value that
// arrives is the value sent, one encoding per value, a truncated payload and
// a trailing byte refused.
func TestWireBytesMatchParent(t *testing.T) {
	msgs := append(wireMessages(), serveMessages()...)
	msgs = append(msgs, &EpochStateReply{Epoch: 1, Leases: []LeaseInfo{{Rank: 2, Bucket: partition.Bucket{P1: 1}, Token: 3}}})
	// serve.TopKReply's Scanned is math.MaxInt, 2⁶³−1 or 2³¹−1 by the
	// architecture; either way it travels as 8 bytes.
	maxInt := hex.EncodeToString(binary.LittleEndian.AppendUint64(nil, uint64(math.MaxInt)))
	want := []string{
		"0700000000000000",                                                     // StartEpochArgs
		"07000000000000001000000000000000",                                     // StartEpochReply
		"030000000000000001000000000000000900000000000080",                     // AcquireArgs
		"0102000000000000000300000000000000012c00000000000000002f685900000000", // AcquireReply
		"030000000000000001000000000000002c000000000000000200000001000000000000000200000000000000030000000000000000000000000000000200000000000000000000000300000000000000", // ReleaseArgs
		"030000000000000001000000000000002c00000000000000", // HeartbeatArgs
		"", // EpochStateArgs
		"020000000000000002000000010000000000000002000000000000000300000000000000000000000000000002000000010000000000000001000000000000000100000000000000050000000000000015cd853dfe9c9717010000000000000000000000000000000002000000000000000600000000000000000000000000000000", // EpochStateReply
		"", // Ack
		"01000000000000000200000000000000881300000000000040000000000000000000803e0c00000000000000", // GetArgs
		"", // FlushArgs
		"0200000000000000030000000000803f000020c0db0f4940", // InitRelArgs
		"02000000000080400000a040fdffffffffffffff",         // InitRelReply
		"0100000000000000010000000000003f",                 // SyncArgs
		"030000000000e04000000041000010410000000000010000", // SyncReply
		"0400000000000000",                                 // PullArgs
		"02000000010000000000000003000000020000000000003f000080bf0a000000000000000104000000000000000200000000000000f9ffffff0100000000000040010000000000000001ffffffffffffffff", // serve.TopKArgs
		"020000000200000004000000feffffff020000000000403f000000bf640000000000000003000000000000000100000009000000010000000000803f" + maxInt + "ffffffffffffffff",               // serve.TopKReply
		"02000000010000000000000002000000030000000400000000000000fbffffff06000000",                                                                                             // serve.ScoreArgs
		"030000000000c03f000000c00000807f", // serve.ScoreReply
		"030000000000000004000000fbffffff", // serve.RankArgs
		"0000000000000440",                 // serve.RankReply
		"0800000072756e2f636b7074",         // serve.ReloadArgs
		"0300000072756e0400000000000000000010000000000001001000000000000010000000000000006300000000000000",                   // serve.StatsReply
		"010000000000000000000000010000000200000000000000010000000000000000000000000000000300000000000000000000000000000000", // EpochStateReply, zero deadline
	}
	if len(msgs) != len(want) {
		t.Fatalf("%d messages, %d encodings", len(msgs), len(want))
	}
	for i, msg := range msgs {
		if got := hex.EncodeToString(wire.Append(nil, msg.Fields)); got != want[i] {
			t.Errorf("%T encodes as %s, want %s", msg, got, want[i])
		}
	}
	for _, msg := range serveMessages() {
		enc := wire.Append(nil, msg.Fields)
		back := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wire.Flat)
		if err := wire.Parse(enc, back.Fields); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("%T arrived as %+v, sent %+v", msg, back, msg)
		}
		if again := wire.Append(nil, back.Fields); !bytes.Equal(again, enc) {
			t.Fatalf("%T re-encodes differently", msg)
		}
		if err := wire.Parse(enc[:len(enc)-1], back.Fields); err == nil {
			t.Fatalf("%T parsed a truncated payload", msg)
		}
		if err := wire.Parse(append(enc, 0), back.Fields); err == nil {
			t.Fatalf("%T parsed a payload with a trailing byte", msg)
		}
	}
}

// TestHeartbeatNotBlockedByParkedAcquire pins per-connection concurrency
// where the protocol needs it: a node's heartbeat shares its lock-server
// connection with its AcquireBucket, which may be parked on the server for
// seconds.
func TestHeartbeatNotBlockedByParkedAcquire(t *testing.T) {
	ls := NewLockServer(insideOutOrder(t, 2), WithLeaseTTL(time.Minute))
	l, addr, err := serve(ls)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	defer ls.close()
	rc, err := dialRetry("lock server", addr, RetryPolicy{}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Call(&MethodStartEpoch, &StartEpochArgs{Epoch: 1}, &StartEpochReply{}); err != nil {
		t.Fatal(err)
	}
	// Rank 0 takes a bucket; in the first epoch every other bucket then
	// touches its partitions or none established, so rank 1 parks.
	var held AcquireReply
	if err := rc.Call(&methodAcquire, &AcquireArgs{Epoch: 1, Rank: 0}, &held); err != nil || !held.Granted {
		t.Fatalf("first grant: %+v, %v", held, err)
	}
	parked := make(chan error, 1)
	var late AcquireReply
	go func() { parked <- rc.Call(&methodAcquire, &AcquireArgs{Epoch: 1, Rank: 1}, &late) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ls.mu.Lock()
		waiting := ls.waiting
		ls.mu.Unlock()
		if waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second acquire never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := rc.Call(&methodHeartbeat, &HeartbeatArgs{Epoch: 1, Rank: 0, Token: held.Token}, &Ack{}); err != nil {
		t.Fatalf("heartbeat behind a parked acquire: %v", err)
	}
	select {
	case err := <-parked:
		t.Fatalf("the parked acquire returned early: %+v, %v", late, err)
	default:
	}
	if err := rc.Call(&methodRelease, &ReleaseArgs{Epoch: 1, Rank: 0, Token: held.Token,
		Buckets: []partition.Bucket{held.Bucket}, Parts: held.Bucket.Parts()}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	if err := <-parked; err != nil || !late.Granted {
		t.Fatalf("parked acquire after the release: %+v, %v", late, err)
	}
}

// slowParams is a parameter server whose Pull parks until released and
// answers with the number of the call.
type slowParams struct {
	*ParamServer
	mu      sync.Mutex
	calls   int
	release chan struct{}
}

func (s *slowParams) Pull(args PullArgs, reply *SyncReply) error {
	s.mu.Lock()
	s.calls++
	n := s.calls
	s.mu.Unlock()
	if n == 1 {
		<-s.release
	}
	reply.Params, reply.Version = []float32{float32(n)}, int64(n)
	return nil
}

// TestTimedOutCallNeverDeliversLate: a call that exceeds CallTimeout drops
// its connection, and from the moment Call returns nothing writes to its
// reply — not when the server answers at last, not into a later call's
// reply either (under -race a late write is a reported race).
func TestTimedOutCallNeverDeliversLate(t *testing.T) {
	srv := &slowParams{ParamServer: NewParamServer(), release: make(chan struct{})}
	l, addr, err := serve(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rc, err := dialRetry("param server", addr, RetryPolicy{CallTimeout: 50 * time.Millisecond, MaxAttempts: 1}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	reg := obs.NewRegistry()
	rc.bindMetrics(reg)

	var first SyncReply
	err = rc.Call(&MethodPull, &PullArgs{Rel: 0}, &first)
	if !errors.Is(err, errCallTimeout) {
		t.Fatalf("parked call: %v, want a timeout", err)
	}
	var second SyncReply
	if err := rc.Call(&MethodPull, &PullArgs{Rel: 0}, &second); err != nil {
		t.Fatal(err)
	}
	if second.Version != 2 || reg.Counter("pbg_dist_rpc_reconnects_total").Value() != 1 {
		t.Fatalf("second call got version %d over %d reconnects, want its own answer over a new connection",
			second.Version, reg.Counter("pbg_dist_rpc_reconnects_total").Value())
	}
	close(srv.release) // the first call's handler answers now, into a dead connection
	var third SyncReply
	if err := rc.Call(&MethodPull, &PullArgs{Rel: 0}, &third); err != nil || third.Version != 3 {
		t.Fatalf("third call: version %d, %v", third.Version, err)
	}
	if first.Version != 0 || first.Params != nil {
		t.Fatalf("the timed-out call's reply was written to: %+v", first)
	}
}

// TestGetDuringPutsSeesWholeImages is what licenses handing a replaced image
// to the next Put: readers of a shard that is being overwritten as fast as
// the wire allows always receive one version whole. Every version is uniform
// (all floats equal), so a reply assembled from two is visible at once.
func TestGetDuringPutsSeesWholeImages(t *testing.T) {
	schema, dim := testSchema(t), 16
	ps := NewPartitionServer(schema, dim, 1)
	l, addr, err := serve(ps)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	count := schema.Entities[0].PartitionCount(0)
	get := GetArgs{TypeIndex: 0, Part: 0, Count: count, Dim: dim}
	uniform := func(sh *storage.Shard, v float32) {
		for i := range sh.Embs {
			sh.Embs[i] = v
		}
		for i := range sh.Acc {
			sh.Acc[i] = v
		}
	}
	const writers, readers, rounds = 2, 3, 150
	first := storage.NewShard(0, 0, count, dim) // the lazy initialisation is not uniform
	if err := ps.Put(PutArgs{Shard: mustEncode(t, first)}, &Ack{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rc, err := dialRetry("partition server", addr, RetryPolicy{}, nil, "")
			if err != nil {
				t.Error(err)
				return
			}
			defer rc.Close()
			sh := storage.NewShard(0, 0, count, dim)
			for i := 0; i < rounds; i++ {
				uniform(sh, float32(w*rounds+i+1))
				if err := rc.Call(&methodPut, shardOut{sh: sh}, &Ack{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	var rg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			rc, err := dialRetry("partition server", addr, RetryPolicy{}, nil, "")
			if err != nil {
				t.Error(err)
				return
			}
			defer rc.Close()
			in := shardIn{want: get}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rc.Call(&methodGet, &get, &in); err != nil {
					t.Error(err)
					return
				}
				v := in.sh.Acc[0]
				for _, x := range in.sh.Embs {
					if x != v {
						t.Errorf("a Get returned a mix of images: %v beside %v", x, v)
						return
					}
				}
				for _, x := range in.sh.Acc {
					if x != v {
						t.Errorf("a Get returned a mix of images: accumulator %v beside %v", x, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rg.Wait()
	ps.freeMu.Lock()
	free := len(ps.free)
	ps.freeMu.Unlock()
	if free == 0 || free > maxFreeImages {
		t.Fatalf("free list holds %d images after %d replacements, want 1..%d", free, writers*rounds, maxFreeImages)
	}
}

func mustEncode(t *testing.T, sh *storage.Shard) []byte {
	t.Helper()
	img, err := encodeShard(sh)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSwapSteadyStateAllocs pins the data plane's promise at the benchmark's
// shard shape: once warm, a Get + Put pair through the checkout cache — both
// ends of the connection are in this process, so both are counted — allocates
// only call bookkeeping. Before the framed wire a pair allocated six
// 1.3 MB buffers (≈ 7.8 MB). The count is process-wide, so it is the
// fewest bytes per pair over five windows: the swaps' own allocations land
// in every window, another test's leftover goroutines in some.
func TestSwapSteadyStateAllocs(t *testing.T) {
	schema := swapSchema()
	store := dialLoopback(t, NewPartitionServer(schema, swapDim, 1), schema, swapDim)
	swap := func(p int) {
		sh, err := store.Acquire(0, p)
		if err != nil {
			t.Fatal(err)
		}
		sh.Embs[0]++
		if err := store.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ { // warm-up: lazy inits, first Puts, free lists
		swap(i % 4)
	}
	perPair := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for w := 0; w < 5; w++ {
		const pairs = 40
		runtime.ReadMemStats(&before)
		for i := 0; i < pairs; i++ {
			swap(i % 4)
		}
		runtime.ReadMemStats(&after)
		perPair = min(perPair, (after.TotalAlloc-before.TotalAlloc)/pairs)
	}
	if perPair >= 4<<10 {
		t.Fatalf("a warm Get + Put pair allocates %d bytes, want < 4 KiB (shard image: %d bytes)",
			perPair, storage.ProjectedShardBytes(schema, swapDim, 0, 0))
	}
}

// TestErrorClassIsACodeNotASubstring: a fencing rejection is recognised over
// the wire by its status, text preserved; an application error that merely
// quotes the phrase is not fencing.
func TestErrorClassIsACodeNotASubstring(t *testing.T) {
	ls := NewLockServer(insideOutOrder(t, 2), WithLeaseTTL(time.Minute))
	quoting := &quotingParams{ParamServer: NewParamServer()}
	l, addr, err := serve(ls, quoting)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rc, err := dialRetry("servers", addr, RetryPolicy{}, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.Call(&MethodStartEpoch, &StartEpochArgs{Epoch: 1}, &StartEpochReply{}); err != nil {
		t.Fatal(err)
	}
	// A heartbeat from a rank that holds nothing is a stale-lease rejection.
	direct := ls.Heartbeat(HeartbeatArgs{Epoch: 1, Rank: 0, Token: 9}, &Ack{})
	err = rc.Call(&methodHeartbeat, &HeartbeatArgs{Epoch: 1, Rank: 0, Token: 9}, &Ack{})
	if !errors.Is(err, ErrStaleLease) || !IsStaleLease(err) || !IsFenced(err) || errors.Is(err, ErrFenced) {
		t.Fatalf("stale lease over the wire: %v", err)
	}
	if err.Error() != direct.Error() || !strings.HasPrefix(err.Error(), "dist: stale lease: heartbeat by rank 0") {
		t.Fatalf("text changed on the wire: %q, server said %q", err, direct)
	}
	if isTransientRPC(err) {
		t.Fatal("a server verdict must not be retried")
	}
	err = rc.Call(&MethodPull, &PullArgs{Rel: 1}, &SyncReply{})
	if err == nil || !strings.Contains(err.Error(), "dist: stale lease") || !strings.Contains(err.Error(), "dist: fenced write") {
		t.Fatalf("quoting error: %v", err)
	}
	if IsStaleLease(err) || IsFenced(err) || isTransientRPC(err) {
		t.Fatalf("an application error that quotes the phrases was classified as fencing: %v", err)
	}
}

// quotingParams fails Pull with an application error whose text contains
// both fencing phrases.
type quotingParams struct{ *ParamServer }

func (quotingParams) Pull(args PullArgs, reply *SyncReply) error {
	return fmt.Errorf("param: relation %d is named \"dist: stale lease\" / \"dist: fenced write\"", args.Rel)
}

// TestServerSpanIsChildOfTrainerSpan: with a shared hub (an in-process
// cluster) the partition server's Get and Put spans hang under the store's
// "get t p" / "put t p" spans, so partition-server time shows up under the
// bucket transition that waited for it.
func TestServerSpanIsChildOfTrainerSpan(t *testing.T) {
	hub := obs.NewHub()
	schema, dim := testSchema(t), 4
	ps := NewPartitionServer(schema, dim, 1, WithPartObs(hub))
	store := dialLoopback(t, ps, schema, dim)
	store.SetObs(hub)
	if _, err := store.Acquire(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := store.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]obs.SpanEvent{}
	events := hub.Trace.Events()
	for _, ev := range events {
		byID[ev.ID] = ev
	}
	found := map[string]string{}
	for _, ev := range events {
		if strings.HasPrefix(ev.Name, "PartitionServer.") {
			found[ev.Name] = byID[ev.Parent].Name
		}
	}
	want := map[string]string{"PartitionServer.Get": "get t0 p1", "PartitionServer.Put": "put t0 p1"}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("server spans and their parents: %v, want %v", found, want)
	}
	snap := hub.Reg.Snapshot()
	img := int64(storage.Layout{Count: schema.Entities[0].PartitionCount(1), Dim: dim}.Size())
	if in := snap.Counters[`pbg_wire_bytes_total{dir="in"}`]; in < img || in > img+1024 {
		t.Errorf("server read %d wire bytes for one Get + one Put of a %d-byte image", in, img)
	}
	if out := snap.Counters[`pbg_wire_bytes_total{dir="out"}`]; out < img || out > img+1024 {
		t.Errorf("server wrote %d wire bytes for one Get + one Put of a %d-byte image", out, img)
	}
	if snap.Histograms["pbg_wire_server_queue_ns"].Count != 2 {
		t.Errorf("queue histogram: %+v", snap.Histograms["pbg_wire_server_queue_ns"])
	}
}

// BenchmarkSwap is one partition swap of the benchmark's shard — a Get and a
// Put of 1 300 024 bytes each over loopback, through the checkout cache —
// reporting ns/op and B/op beside BenchmarkClusterEpoch.
func BenchmarkSwap(b *testing.B) {
	schema := swapSchema()
	l, addr, err := serve(NewPartitionServer(schema, swapDim, 1))
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	store, err := dialStore(schema, swapDim, 1, false, []string{addr}, storeOpts{})
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	swap := func(p int) {
		if _, err := store.Acquire(0, p); err != nil {
			b.Fatal(err)
		}
		if err := store.Release(0, p); err != nil {
			b.Fatal(err)
		}
	}
	for p := 0; p < 8; p++ {
		swap(p % 4)
	}
	b.SetBytes(2 * storage.Layout{Count: 5000, Dim: swapDim}.Size())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swap(i % 4)
	}
}
