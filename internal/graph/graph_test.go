package graph

import (
	"math"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"pbg/internal/rng"
)

func simpleSchema(t *testing.T, count, parts int) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]EntityType{{Name: "node", Count: count, NumPartitions: parts}},
		[]RelationType{{Name: "link", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		ents []EntityType
		rels []RelationType
	}{
		{"empty entity name", []EntityType{{Name: "", Count: 1, NumPartitions: 1}},
			[]RelationType{{SourceType: "", DestType: ""}}},
		{"zero count", []EntityType{{Name: "a", Count: 0, NumPartitions: 1}},
			[]RelationType{{SourceType: "a", DestType: "a"}}},
		{"zero partitions", []EntityType{{Name: "a", Count: 5, NumPartitions: 0}},
			[]RelationType{{SourceType: "a", DestType: "a"}}},
		{"more partitions than entities", []EntityType{{Name: "a", Count: 2, NumPartitions: 4}},
			[]RelationType{{SourceType: "a", DestType: "a"}}},
		{"duplicate entity", []EntityType{{Name: "a", Count: 2, NumPartitions: 1}, {Name: "a", Count: 3, NumPartitions: 1}},
			[]RelationType{{SourceType: "a", DestType: "a"}}},
		{"unknown source type", []EntityType{{Name: "a", Count: 2, NumPartitions: 1}},
			[]RelationType{{SourceType: "b", DestType: "a"}}},
		{"unknown dest type", []EntityType{{Name: "a", Count: 2, NumPartitions: 1}},
			[]RelationType{{SourceType: "a", DestType: "b"}}},
		{"no relations", []EntityType{{Name: "a", Count: 2, NumPartitions: 1}}, nil},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.ents, c.rels); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestPartitionArithmetic(t *testing.T) {
	e := EntityType{Name: "n", Count: 10, NumPartitions: 4}
	if e.PartSize() != 3 {
		t.Fatalf("PartSize = %d, want 3", e.PartSize())
	}
	// Partition sizes: 3,3,3,1.
	wantCounts := []int{3, 3, 3, 1}
	for p, w := range wantCounts {
		if got := e.PartitionCount(p); got != w {
			t.Fatalf("PartitionCount(%d) = %d, want %d", p, got, w)
		}
	}
	// Every entity maps to a valid partition and offset round-trips.
	for id := int32(0); id < 10; id++ {
		p := e.PartitionOf(id)
		off := e.LocalOffset(id)
		if p < 0 || p >= 4 {
			t.Fatalf("PartitionOf(%d) = %d", id, p)
		}
		if int32(p*e.PartSize()+off) != id {
			t.Fatalf("partition/offset do not round-trip for id %d", id)
		}
		if off >= e.PartitionCount(p) {
			t.Fatalf("offset %d >= partition count %d for id %d", off, e.PartitionCount(p), id)
		}
	}
}

func TestPartitionRoundTripProperty(t *testing.T) {
	f := func(countRaw uint16, partsRaw uint8, idRaw uint16) bool {
		count := int(countRaw)%5000 + 1
		parts := int(partsRaw)%8 + 1
		if parts > count {
			parts = count
		}
		e := EntityType{Name: "n", Count: count, NumPartitions: parts}
		id := int32(int(idRaw) % count)
		p := e.PartitionOf(id)
		return p >= 0 && p < parts && int32(p*e.PartSize()+e.LocalOffset(id)) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListBasics(t *testing.T) {
	el := &EdgeList{}
	el.Append(1, 0, 2)
	el.Append(3, 0, 4)
	if el.Len() != 2 {
		t.Fatalf("Len = %d", el.Len())
	}
	s, r, d := el.Edge(1)
	if s != 3 || r != 0 || d != 4 {
		t.Fatalf("Edge(1) = %d,%d,%d", s, r, d)
	}
	cl := el.Clone()
	cl.Srcs[0] = 99
	if el.Srcs[0] == 99 {
		t.Fatal("Clone must deep copy")
	}
	el.Swap(0, 1)
	if el.Srcs[0] != 3 || el.Dsts[0] != 4 {
		t.Fatal("Swap broken")
	}
}

func TestNewGraphValidation(t *testing.T) {
	s := simpleSchema(t, 5, 1)
	bad := []struct {
		name    string
		s, r, d int32
	}{
		{"neg src", -1, 0, 0},
		{"src too big", 5, 0, 0},
		{"neg rel", 0, -1, 0},
		{"rel too big", 0, 1, 0},
		{"dst too big", 0, 0, 7},
	}
	for _, b := range bad {
		el := &EdgeList{}
		el.Append(b.s, b.r, b.d)
		if _, err := NewGraph(s, el); err == nil {
			t.Errorf("%s: expected error", b.name)
		}
	}
	el := &EdgeList{}
	el.Append(0, 0, 4)
	if _, err := NewGraph(s, el); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
}

func TestSplitFractionsAndDisjointness(t *testing.T) {
	s := simpleSchema(t, 100, 1)
	el := &EdgeList{}
	for i := int32(0); i < 100; i++ {
		el.Append(i, 0, (i+1)%100)
	}
	g := MustGraph(s, el)
	train, valid, test := g.Split(0.05, 0.05, 7)
	if valid.Edges.Len() != 5 || test.Edges.Len() != 5 || train.Edges.Len() != 90 {
		t.Fatalf("split sizes %d/%d/%d", train.Edges.Len(), valid.Edges.Len(), test.Edges.Len())
	}
	seen := map[[3]int32]string{}
	add := func(g *Graph, label string) {
		for i := 0; i < g.Edges.Len(); i++ {
			s, r, d := g.Edges.Edge(i)
			k := [3]int32{s, r, d}
			if prev, dup := seen[k]; dup {
				t.Fatalf("edge %v in both %s and %s", k, prev, label)
			}
			seen[k] = label
		}
	}
	add(train, "train")
	add(valid, "valid")
	add(test, "test")
	if len(seen) != 100 {
		t.Fatalf("splits lost edges: %d", len(seen))
	}
	// Determinism.
	tr2, _, _ := g.Split(0.05, 0.05, 7)
	for i := 0; i < tr2.Edges.Len(); i++ {
		a, _, _ := train.Edges.Edge(i)
		b, _, _ := tr2.Edges.Edge(i)
		if a != b {
			t.Fatal("split not deterministic under same seed")
		}
	}
}

func TestComputeDegrees(t *testing.T) {
	s := simpleSchema(t, 4, 1)
	el := &EdgeList{}
	el.Append(0, 0, 1)
	el.Append(0, 0, 2)
	el.Append(1, 0, 0)
	g := MustGraph(s, el)
	d := ComputeDegrees(g)
	want := []float64{3, 2, 1, 0}
	for i, w := range want {
		if d.ByType[0][i] != w {
			t.Fatalf("degree[%d] = %v, want %v", i, d.ByType[0][i], w)
		}
	}
}

// TestEdgeSet: the neighbour lists hold every known edge in both directions,
// per relation, and an edge listed in two edge lists only repeats itself.
func TestEdgeSet(t *testing.T) {
	a := &EdgeList{}
	a.Append(1, 0, 2)
	a.Append(1, 0, 5)
	a.Append(3, 1, 4)
	b := &EdgeList{}
	b.Append(1, 0, 2) // also in a
	b.Append(7, 0, 2)
	es := NewEdgeSet(a, b)
	for _, c := range []struct {
		name      string
		got, want []int32
	}{
		{"Destinations(1, 0)", es.Destinations(1, 0), []int32{2, 5, 2}},
		{"Destinations(3, 1)", es.Destinations(3, 1), []int32{4}},
		{"Sources(0, 2)", es.Sources(0, 2), []int32{1, 1, 7}},
		{"Sources(1, 4)", es.Sources(1, 4), []int32{3}},
		{"Destinations(1, 1)", es.Destinations(1, 1), nil}, // 1 has no edge under relation 1
		{"Sources(1, 2)", es.Sources(1, 2), nil},
		{"Destinations(2, 0)", es.Destinations(2, 0), nil}, // 2 is only ever a destination
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSortByBucket(t *testing.T) {
	s := simpleSchema(t, 12, 3) // partitions of size 4: [0-3],[4-7],[8-11]
	el := &EdgeList{}
	// One edge in each of several buckets, plus extras.
	el.Append(9, 0, 1)  // (2,0)
	el.Append(0, 0, 0)  // (0,0)
	el.Append(5, 0, 10) // (1,2)
	el.Append(1, 0, 2)  // (0,0)
	el.Append(4, 0, 8)  // (1,2)
	ranges := SortByBucket(s, el, 3, 3)
	if len(ranges) != 9 {
		t.Fatalf("got %d ranges", len(ranges))
	}
	if ranges[0].Len() != 2 { // bucket (0,0)
		t.Fatalf("bucket (0,0) len = %d, want 2", ranges[0].Len())
	}
	if ranges[1*3+2].Len() != 2 { // bucket (1,2)
		t.Fatalf("bucket (1,2) len = %d, want 2", ranges[5].Len())
	}
	if ranges[2*3+0].Len() != 1 { // bucket (2,0)
		t.Fatalf("bucket (2,0) len = %d, want 1", ranges[6].Len())
	}
	// Every edge in a range must actually belong to that bucket.
	e := s.Entities[0]
	for b, rg := range ranges {
		p1, p2 := b/3, b%3
		for i := rg.Lo; i < rg.Hi; i++ {
			src, _, dst := el.Edge(i)
			if e.PartitionOf(src) != p1 || e.PartitionOf(dst) != p2 {
				t.Fatalf("edge %d (%d,%d) filed under bucket (%d,%d)", i, src, dst, p1, p2)
			}
		}
	}
	// Total coverage.
	total := 0
	for _, rg := range ranges {
		total += rg.Len()
	}
	if total != el.Len() {
		t.Fatalf("ranges cover %d edges, want %d", total, el.Len())
	}
}

func TestSortByBucketUnpartitionedDest(t *testing.T) {
	// Mixed schema: users partitioned, items not. Buckets collapse to P on
	// the source side (Figure 1, center).
	s := MustSchema(
		[]EntityType{
			{Name: "user", Count: 8, NumPartitions: 2},
			{Name: "item", Count: 4, NumPartitions: 1},
		},
		[]RelationType{{Name: "buys", SourceType: "user", DestType: "item", Operator: "identity"}},
	)
	el := &EdgeList{}
	el.Append(6, 0, 3) // user partition 1
	el.Append(1, 0, 0) // user partition 0
	ranges := SortByBucket(s, el, 2, 1)
	if len(ranges) != 2 {
		t.Fatalf("got %d ranges, want 2", len(ranges))
	}
	if ranges[0].Len() != 1 || ranges[1].Len() != 1 {
		t.Fatalf("ranges %+v", ranges)
	}
	src, _, _ := el.Edge(ranges[0].Lo)
	if src != 1 {
		t.Fatalf("bucket 0 edge has src %d", src)
	}
}

func TestShuffleKeepsEdgeIntegrity(t *testing.T) {
	el := &EdgeList{}
	for i := int32(0); i < 50; i++ {
		el.Append(i, i%3, i*2)
	}
	el.Shuffle(rng.New(5))
	seen := map[int32]bool{}
	for i := 0; i < el.Len(); i++ {
		s, r, d := el.Edge(i)
		if r != s%3 || d != s*2 {
			t.Fatalf("edge fields decoupled by shuffle: %d,%d,%d", s, r, d)
		}
		if seen[s] {
			t.Fatalf("duplicate edge src %d", s)
		}
		seen[s] = true
	}
}

func TestNumBuckets(t *testing.T) {
	s := simpleSchema(t, 12, 3)
	if nSrc, nDst := s.BucketDims(); nSrc*nDst != 9 {
		t.Fatalf("buckets = %d×%d, want 9", nSrc, nDst)
	}
	s2 := MustSchema(
		[]EntityType{
			{Name: "user", Count: 8, NumPartitions: 4},
			{Name: "item", Count: 4, NumPartitions: 1},
		},
		[]RelationType{{Name: "buys", SourceType: "user", DestType: "item", Operator: "identity"}},
	)
	if nSrc, nDst := s2.BucketDims(); nSrc != 4 || nDst != 1 {
		t.Fatalf("buckets = %d×%d, want 4×1", nSrc, nDst)
	}
}

func TestEffectiveWeight(t *testing.T) {
	if (RelationType{}).EffectiveWeight() != 1 {
		t.Fatal("zero weight should default to 1")
	}
	if (RelationType{Weight: 2.5}).EffectiveWeight() != 2.5 {
		t.Fatal("explicit weight not honoured")
	}
}

// Entity IDs are int32 everywhere (edge columns, eval's int32(r.Intn(count)),
// sampling's partition bounds); counts past MaxInt32 would wrap those casts
// negative, so NewSchema must reject them up front.
func TestNewSchemaRejectsOverInt32Counts(t *testing.T) {
	if strconv.IntSize < 64 {
		t.Skip("int cannot exceed int32 on this platform")
	}
	over := math.MaxInt32 // runtime increment: a MaxInt32+1 literal would not compile on 32-bit
	over++
	_, err := NewSchema(
		[]EntityType{{Name: "n", Count: over, NumPartitions: 1}},
		[]RelationType{{Name: "r", SourceType: "n", DestType: "n", Operator: "identity"}},
	)
	if err == nil {
		t.Fatal("schema with Count > MaxInt32 accepted")
	}
	// MaxInt32 itself is the inclusive limit and stays valid.
	if _, err := NewSchema(
		[]EntityType{{Name: "n", Count: math.MaxInt32, NumPartitions: 1}},
		[]RelationType{{Name: "r", SourceType: "n", DestType: "n", Operator: "identity"}},
	); err != nil {
		t.Fatalf("schema with Count = MaxInt32 rejected: %v", err)
	}
}
