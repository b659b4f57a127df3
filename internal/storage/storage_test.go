package storage

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"pbg/internal/graph"
	"pbg/internal/rng"
)

func testSchema(t *testing.T) *graph.Schema {
	t.Helper()
	return graph.MustSchema(
		[]graph.EntityType{
			{Name: "node", Count: 20, NumPartitions: 4},
			{Name: "tag", Count: 6, NumPartitions: 1},
		},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "tag", Operator: "identity"}},
	)
}

// TestProjectedShardBytesIsShardBytes pins the budget's one price: the
// schema's projection of every shard, uneven partitions included, is the
// Shard.Bytes of the shard a load produces, under every file codec.
func TestProjectedShardBytesIsShardBytes(t *testing.T) {
	schema := graph.MustSchema(
		[]graph.EntityType{{Name: "node", Count: 23, NumPartitions: 4}, {Name: "tag", Count: 6, NumPartitions: 1}},
		[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "tag", Operator: "identity"}},
	)
	for _, dim := range []int{1, 8, 128} {
		for ti, e := range schema.Entities {
			for p := 0; p < e.NumPartitions; p++ {
				want := NewShard(ti, p, e.PartitionCount(p), dim).Bytes()
				if got := ProjectedShardBytes(schema, dim, ti, p); got != want {
					t.Fatalf("dim %d shard (%d,%d): projected %d, Shard.Bytes %d", dim, ti, p, got, want)
				}
			}
		}
	}
	for _, c := range Codecs() {
		st := newTestDisk(t, "", schema, 8, 1, 1)
		st.SetCodec(c)
		sh, err := st.Acquire(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		sh.Row(0)[0] += 1
		if err := st.Release(0, 3); err != nil {
			t.Fatal(err)
		}
		// Unbudgeted, the last Release writes the file in c and drops the
		// shard, so the next Acquire decodes it.
		if err := st.Drain(); err != nil {
			t.Fatal(err)
		}
		if _, fc, err := ReadShardCodec(ShardPath(st.Dir(), 0, 3)); err != nil || fc != c {
			t.Fatalf("file codec %v (%v), want %v", fc, err, c)
		}
		if sh, err = st.Acquire(0, 3); err != nil {
			t.Fatal(err)
		}
		if got, want := ProjectedShardBytes(schema, 8, 0, 3), sh.Bytes(); got != want {
			t.Fatalf("%v: projected %d, loaded Shard.Bytes %d", c, got, want)
		}
		if err := st.Release(0, 3); err != nil {
			t.Fatal(err)
		}
	}
}

func TestShardInitStatistics(t *testing.T) {
	sh := NewShard(0, 0, 1000, 16)
	sh.Init(rng.New(1), 1.0)
	var sum, sumsq float64
	for _, v := range sh.Embs {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(len(sh.Embs))
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("init mean %v", mean)
	}
	want := 1.0 / 4.0 // scale/√dim = 1/√16
	if math.Abs(std-want) > 0.02 {
		t.Fatalf("init std %v, want %v", std, want)
	}
}

func TestShardInitDeterministic(t *testing.T) {
	a := NewShard(0, 0, 10, 4)
	b := NewShard(0, 0, 10, 4)
	a.Init(rng.New(5), 1)
	b.Init(rng.New(5), 1)
	for i := range a.Embs {
		if a.Embs[i] != b.Embs[i] {
			t.Fatal("same seed must give same init")
		}
	}
}

func TestShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sh := NewShard(1, 2, 7, 5)
	sh.Init(rng.New(3), 1)
	sh.Acc[3] = 42.5
	path := filepath.Join(dir, "s.pbg")
	if err := WriteShard(path, sh); err != nil {
		t.Fatal(err)
	}
	got, err := ReadShard(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TypeIndex != 1 || got.Part != 2 || got.Count != 7 || got.Dim != 5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range sh.Embs {
		if got.Embs[i] != sh.Embs[i] {
			t.Fatalf("emb[%d] %v != %v", i, got.Embs[i], sh.Embs[i])
		}
	}
	if got.Acc[3] != 42.5 {
		t.Fatalf("acc not preserved: %v", got.Acc[3])
	}
}

func TestReadShardRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.pbg")
	if err := os.WriteFile(path, []byte("not a shard at all, sorry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadShard(path); err == nil {
		t.Fatal("expected error for garbage file")
	}
}

func TestMemStoreAcquireIdentity(t *testing.T) {
	st := NewMemStore(testSchema(t), 8, 1, 1)
	a, err := st.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Acquire(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("repeated Acquire must return the same shard")
	}
	if a.Count != 5 { // 20 entities / 4 partitions
		t.Fatalf("shard count %d, want 5", a.Count)
	}
	if err := st.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Release(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := st.Release(0, 1); err == nil {
		t.Fatal("over-release not detected")
	}
}

func TestMemStoreShardsPersistAcrossReleases(t *testing.T) {
	st := NewMemStore(testSchema(t), 8, 1, 1)
	a, _ := st.Acquire(0, 0)
	a.Row(0)[0] = 123
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
	b, _ := st.Acquire(0, 0)
	if b.Row(0)[0] != 123 {
		t.Fatal("MemStore dropped shard state")
	}
	if err := st.Release(0, 0); err != nil {
		t.Fatal(err)
	}
}

// newTestDisk is storetest.NewDisk for this package's own tests, which
// cannot import storetest (it imports storage): the store is closed —
// draining its write-backs — before the test's TempDir is removed.
func newTestDisk(tb testing.TB, dir string, schema *graph.Schema, dim int, seed uint64, initScale float32) *DiskStore {
	tb.Helper()
	if dir == "" {
		dir = tb.TempDir()
	}
	ds, err := NewDiskStore(dir, schema, dim, seed, initScale)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := ds.Close(); err != nil {
			tb.Errorf("closing DiskStore: %v", err)
		}
	})
	return ds
}

func TestDiskStoreSwapsToDisk(t *testing.T) {
	dir := t.TempDir()
	st := newTestDisk(t, dir, testSchema(t), 8, 1, 1)
	sh, err := st.Acquire(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	sh.Row(1)[3] = 7.5
	sh.Acc[1] = 2.0
	if err := st.Release(0, 2); err != nil {
		t.Fatal(err)
	}
	// The write-back is asynchronous; drain it before observing eviction.
	if err := st.Drain(); err != nil {
		t.Fatal(err)
	}
	// Evicted: resident bytes drop to zero and the file exists.
	if st.ResidentBytes() != 0 {
		t.Fatalf("resident bytes %d after eviction", st.ResidentBytes())
	}
	if _, err := os.Stat(filepath.Join(dir, "shard_t0_p2.pbg")); err != nil {
		t.Fatalf("shard file missing: %v", err)
	}
	// Re-acquire restores the mutated state.
	sh2, err := st.Acquire(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sh2.Row(1)[3] != 7.5 || sh2.Acc[1] != 2.0 {
		t.Fatal("state lost through disk round trip")
	}
	if err := st.Release(0, 2); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreDeterministicInitAcrossStores(t *testing.T) {
	dir1 := t.TempDir()
	dir2 := t.TempDir()
	s1 := newTestDisk(t, dir1, testSchema(t), 8, 42, 1)
	s2 := newTestDisk(t, dir2, testSchema(t), 8, 42, 1)
	a, _ := s1.Acquire(0, 3)
	b, _ := s2.Acquire(0, 3)
	for i := range a.Embs {
		if a.Embs[i] != b.Embs[i] {
			t.Fatal("same seed must init shards identically across stores")
		}
	}
	// Different partitions must differ.
	c, _ := s1.Acquire(0, 1)
	same := true
	for i := range c.Embs {
		if c.Embs[i] != a.Embs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different partitions initialised identically")
	}
	if err := s1.Release(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s2.Release(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := s1.Release(0, 1); err != nil {
		t.Fatal(err)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	el := &graph.EdgeList{}
	for i := int32(0); i < 100; i++ {
		el.Append(i, i%3, i*7%19)
	}
	path := filepath.Join(dir, "edges.bin")
	if err := WriteEdges(path, el); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdges(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != el.Len() {
		t.Fatalf("len %d != %d", got.Len(), el.Len())
	}
	for i := 0; i < el.Len(); i++ {
		s1, r1, d1 := el.Edge(i)
		s2, r2, d2 := got.Edge(i)
		if s1 != s2 || r1 != r2 || d1 != d2 {
			t.Fatalf("edge %d mismatch", i)
		}
	}
}

func TestRelationsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rs := &RelationState{
		Params: [][]float32{{1, 2, 3}, {4}},
		Acc:    [][]float32{{0.1, 0.2, 0.3}, {0.4}},
	}
	path := filepath.Join(dir, "rel.bin")
	if err := WriteRelations(path, rs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRelations(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Params) != 2 || len(got.Params[0]) != 3 || len(got.Params[1]) != 1 {
		t.Fatalf("shape mismatch: %+v", got)
	}
	if got.Params[0][1] != 2 || got.Acc[1][0] != 0.4 {
		t.Fatal("values lost")
	}
}

// TestReadRelationParams holds the one relations.pbg gate to its rule: the
// file may be absent only when every count is 0; present, it holds one
// block per relation of exactly that relation's count. A refusal names the
// file, and a relation's block at fault is that relation's RelationError.
// WriteRelationParams writes WriteRelations' bytes with zero accumulators.
func TestReadRelationParams(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, relationsFile)
	refused := func(name string, err error, rel int) {
		t.Helper()
		var re *RelationError
		switch {
		case err == nil || !strings.Contains(err.Error(), path):
			t.Errorf("%s: error %v, want one naming %s", name, err, path)
		case rel >= 0 && (!errors.As(err, &re) || re.Rel != rel || !strings.Contains(err.Error(), "relation "+strconv.Itoa(rel))):
			t.Errorf("%s: error %v, want relation %d's RelationError", name, err, rel)
		}
	}
	if got, err := ReadRelationParams(dir, []int{0, 0}); err != nil || len(got) != 2 {
		t.Fatalf("parameter-free model without the file: %v, %v", got, err)
	}
	_, err := ReadRelationParams(dir, []int{0, 3})
	refused("missing file", err, 1)

	params := [][]float32{{1, 2, 3}, {}}
	if err := WriteRelationParams(dir, params); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(t.TempDir(), "ref.pbg")
	if err := WriteRelations(ref, &RelationState{Params: params, Acc: [][]float32{{0, 0, 0}, {}}}); err != nil {
		t.Fatal(err)
	}
	if a, b := readFile(t, path), readFile(t, ref); string(a) != string(b) {
		t.Fatal("WriteRelationParams wrote other bytes than WriteRelations with zero accumulators")
	}
	got, err := ReadRelationParams(dir, []int{3, 0})
	if err != nil || len(got) != 2 || len(got[0]) != 3 || got[0][2] != 3 || len(got[1]) != 0 {
		t.Fatalf("read back %v, %v", got, err)
	}
	for name, c := range map[string]struct {
		counts []int
		rel    int // -1: the file's block count is at fault
	}{
		"wrong count":            {[]int{2, 0}, 0},
		"parameters missing":     {[]int{3, 1}, 1},
		"reciprocal count":       {[]int{6, 0}, 0},
		"parameter-free in file": {[]int{0, 0}, 0},
		"a relation fewer":       {[]int{3, 0, 0}, -1},
		"a relation more":        {[]int{3}, -1},
	} {
		_, err := ReadRelationParams(dir, c.counts)
		refused(name, err, c.rel)
	}
}

func TestShardBytes(t *testing.T) {
	sh := NewShard(0, 0, 10, 4)
	if sh.Bytes() != (40+10)*4 {
		t.Fatalf("Bytes = %d", sh.Bytes())
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"0", 0, false},
		{"1234", 1234, false},
		{"64KB", 64 << 10, false},
		{"64k", 64 << 10, false},
		{"1.5MiB", 3 << 19, false},
		{"2G", 2 << 30, false},
		{"512 MB", 512 << 20, false},
		{"10B", 10, false},
		// Terabyte budgets (embedding tables at the millions-of-users
		// scale need them).
		{"1T", 1 << 40, false},
		{"2TB", 2 << 40, false},
		{"1.5TiB", 3 << 39, false},
		{"1 tib", 1 << 40, false},
		// Suffix precedence: the longest suffix wins, so KiB/TiB are not
		// read as "KI"/"TI" bytes and TB is not read as T... or bare B.
		{"1KiB", 1 << 10, false},
		{"1kb", 1 << 10, false},
		{"1GiB", 1 << 30, false},
		{"1gb", 1 << 30, false},
		{"1MiB", 1 << 20, false},
		{"-1", 0, true},
		{"abc", 0, true},
		{"1XB", 0, true},
		// Not a finite size that fits an int64: these used to come back as
		// MinInt64 with a nil error.
		{"NaN", 0, true},
		{"Inf", 0, true},
		{"-Inf", 0, true},
		{"infinity KB", 0, true},
		{"1e30", 0, true},
		{"8388608T", 0, true}, // 2^63 bytes
		{"8388607T", 8388607 << 40, false},
		// A positive size under one byte used to mean unbounded.
		{"0.4", 0, true},
		{"0.0000001K", 0, true},
		{"0.0", 0, false},
	}
	for _, c := range cases {
		got, err := ParseByteSize(c.in)
		if c.err != (err != nil) {
			t.Fatalf("ParseByteSize(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err != nil && !strings.Contains(err.Error(), strconv.Quote(c.in)) {
			t.Errorf("ParseByteSize(%q) error %q does not quote the input", c.in, err)
		}
		if !c.err && got != c.want {
			t.Fatalf("ParseByteSize(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestDiskStoreRejectsForeignShardShape: a directory written under one
// configuration and opened under another fails its first Acquire with an
// error naming both shapes, instead of handing out a shard the schema's
// offsets run past (a Shard.Row panic far from the cause).
func TestDiskStoreRejectsForeignShardShape(t *testing.T) {
	const dim = 4
	dir := t.TempDir()
	schema := func(parts int) *graph.Schema {
		return graph.MustSchema([]graph.EntityType{{Name: "node", Count: 40, NumPartitions: parts}},
			[]graph.RelationType{{Name: "r", SourceType: "node", DestType: "node"}})
	}
	ds, err := NewDiskStore(dir, schema(4), dim, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if _, err := ds.Acquire(0, p); err != nil {
			t.Fatal(err)
		}
		if err := ds.Release(0, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		parts, dim int
		shapes     string
	}{
		"P=1":   {1, dim, "(0,0) of 10×4 where (0,0) of 40×4"},
		"dim 8": {4, 2 * dim, "(0,0) of 10×4 where (0,0) of 10×8"},
	} {
		st := newTestDisk(t, dir, schema(c.parts), c.dim, 1, 1)
		//lint:ignore pairedrelease the foreign shard makes this Acquire fail, holding nothing; newTestDisk closes the store at cleanup
		if _, err := st.Acquire(0, 0); err == nil || !strings.Contains(err.Error(), c.shapes) {
			t.Errorf("%s: Acquire error %v, want one naming %q", name, err, c.shapes)
		}
	}
}
