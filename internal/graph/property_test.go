package graph

import (
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"pbg/internal/rng"
)

// randomBucketGraph draws a schema of one to four entity types, each
// partitioned into up to 16 parts or unpartitioned, one to five relations
// between them, and up to 600 edges, which leaves many buckets empty.
func randomBucketGraph(r *rng.RNG) (*Schema, *EdgeList) {
	ents := make([]EntityType, 1+r.Intn(4))
	for i := range ents {
		count := 1 + r.Intn(300)
		parts := 1
		if r.Intn(3) > 0 {
			parts = min(count, 1+r.Intn(16))
		}
		ents[i] = EntityType{Name: "e" + strconv.Itoa(i), Count: count, NumPartitions: parts}
	}
	rels := make([]RelationType, 1+r.Intn(5))
	for i := range rels {
		rels[i] = RelationType{Name: "r" + strconv.Itoa(i), Operator: "identity",
			SourceType: ents[r.Intn(len(ents))].Name, DestType: ents[r.Intn(len(ents))].Name}
	}
	s := MustSchema(ents, rels)
	el := &EdgeList{}
	for n := r.Intn(601); el.Len() < n; {
		rel := int32(r.Intn(len(rels)))
		el.Append(int32(r.Intn(s.Entity(rels[rel].SourceType).Count)), rel, int32(r.Intn(s.Entity(rels[rel].DestType).Count)))
	}
	return s, el
}

// referenceBucketSort is the contract SortByBucket keeps: a stable sort of
// a copy by bucket key, p1*nDst+p2, an unpartitioned side counting as 0.
func referenceBucketSort(s *Schema, edges *EdgeList, nDst int) (*EdgeList, []int) {
	key := func(i int) int {
		src, r, dst := edges.Edge(i)
		p1, p2 := 0, 0
		if se := s.Entity(s.Relations[r].SourceType); se.Partitioned() {
			p1 = se.PartitionOf(src)
		}
		if de := s.Entity(s.Relations[r].DestType); de.Partitioned() {
			p2 = de.PartitionOf(dst)
		}
		return p1*nDst + p2
	}
	idx := make([]int, edges.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
	out, keys := &EdgeList{}, make([]int, len(idx))
	for i, j := range idx {
		out.Append(edges.Edge(j))
		keys[i] = key(j)
	}
	return out, keys
}

// Property: over random schemas, SortByBucket equals the stable reference
// edge for edge, and its ranges cover [0, E) in bucket-index order with
// every empty bucket at {0, 0}.
func TestSortByBucketProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s, el := randomBucketGraph(rng.New(seed))
		nSrc, nDst := s.BucketDims()
		want, keys := referenceBucketSort(s, el, nDst)
		ranges := SortByBucket(s, el, nSrc, nDst)
		if len(ranges) != nSrc*nDst || el.Len() != want.Len() {
			return false
		}
		for i := 0; i < el.Len(); i++ {
			a, b, c := el.Edge(i)
			x, y, z := want.Edge(i)
			if a != x || b != y || c != z {
				t.Logf("seed %d: edge %d is (%d %d %d), reference (%d %d %d)", seed, i, a, b, c, x, y, z)
				return false
			}
		}
		next := 0
		for b, rg := range ranges {
			if rg.Empty() {
				if rg != (BucketRange{}) {
					t.Logf("seed %d: empty bucket %d has range %v", seed, b, rg)
					return false
				}
				continue
			}
			if rg.Lo != next {
				t.Logf("seed %d: bucket %d starts at %d, want %d", seed, b, rg.Lo, next)
				return false
			}
			for i := rg.Lo; i < rg.Hi; i++ {
				if keys[i] != b {
					return false
				}
			}
			next = rg.Hi
		}
		return next == el.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSortByBucket buckets the repo benchmark's social_ooc edge list
// shape: 176 403 edges over 48 000 nodes in 16 × 16 buckets.
func BenchmarkSortByBucket(b *testing.B) {
	const nodes, nEdges, parts = 48000, 176403, 16
	s := MustSchema(
		[]EntityType{{Name: "node", Count: nodes, NumPartitions: parts}},
		[]RelationType{{Name: "follows", SourceType: "node", DestType: "node", Operator: "identity"}},
	)
	r := rng.New(1)
	in := &EdgeList{}
	for in.Len() < nEdges {
		in.Append(int32(r.Intn(nodes)), 0, int32(r.Intn(nodes)))
	}
	el := in.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(el.Srcs, in.Srcs)
		copy(el.Dsts, in.Dsts)
		b.StartTimer()
		SortByBucket(s, el, parts, parts)
	}
}

// Property: Split never loses or duplicates edges for arbitrary fractions.
func TestSplitProperty(t *testing.T) {
	f := func(seed uint64, vRaw, tRaw uint8, edgesRaw uint16) bool {
		vf := float64(vRaw%50) / 100
		tf := float64(tRaw%50) / 100
		nEdges := int(edgesRaw)%300 + 3
		s := MustSchema(
			[]EntityType{{Name: "n", Count: 1000, NumPartitions: 1}},
			[]RelationType{{Name: "r", SourceType: "n", DestType: "n", Operator: "identity"}},
		)
		r := rng.New(seed)
		el := &EdgeList{}
		for i := 0; i < nEdges; i++ {
			el.Append(int32(r.Intn(1000)), 0, int32(r.Intn(1000)))
		}
		g := MustGraph(s, el)
		a, b, c := g.Split(vf, tf, seed)
		return a.Edges.Len()+b.Edges.Len()+c.Edges.Len() == nEdges
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every entity id maps to exactly one (partition, offset) pair
// and PartitionCount sums to Count.
func TestPartitionCountsSumProperty(t *testing.T) {
	f := func(countRaw uint16, partsRaw uint8) bool {
		count := int(countRaw)%10000 + 1
		parts := int(partsRaw)%16 + 1
		if parts > count {
			parts = count
		}
		e := EntityType{Name: "n", Count: count, NumPartitions: parts}
		sum := 0
		for p := 0; p < parts; p++ {
			sum += e.PartitionCount(p)
		}
		return sum == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
