// Package graph defines the multi-entity, multi-relation graph model from §3
// of the PBG paper: a set of entity types (each optionally partitioned), a
// set of relation types (each naming the entity type of its source and
// destination side plus a relation operator), and a list of positive edges
// (s, r, d).
//
// Entity IDs are dense integers per entity type, 0..Count-1. Edges are stored
// columnar ([]int32 per field) so hundreds of millions of edges stay compact
// and bucket-sorting is cache friendly.
package graph

import (
	"fmt"
	"math"
	"sort"

	"pbg/internal/rng"
)

// EntityType describes one class of nodes (e.g. "user", "product").
type EntityType struct {
	// Name identifies the type in relation configs.
	Name string
	// Count is the number of entities of this type.
	Count int
	// NumPartitions is P from §4.1. 1 means the type is unpartitioned and
	// its embeddings are held in memory (or on the parameter server in
	// distributed mode) for the whole run.
	NumPartitions int
}

// Partitioned reports whether the type is split into more than one part.
func (e EntityType) Partitioned() bool { return e.NumPartitions > 1 }

// PartSize returns the number of entities per partition (the last partition
// may be smaller).
func (e EntityType) PartSize() int {
	return (e.Count + e.NumPartitions - 1) / e.NumPartitions
}

// PartitionOf returns the partition that entity id belongs to. Entities are
// assigned to partitions in contiguous blocks; generators shuffle IDs so
// this is equivalent to the uniform assignment the paper uses.
func (e EntityType) PartitionOf(id int32) int {
	return int(id) / e.PartSize()
}

// LocalOffset returns the index of id within its partition.
func (e EntityType) LocalOffset(id int32) int {
	return int(id) % e.PartSize()
}

// PartitionCount returns the number of entities in partition p.
func (e EntityType) PartitionCount(p int) int {
	size := e.PartSize()
	start := p * size
	if start >= e.Count {
		return 0
	}
	end := start + size
	if end > e.Count {
		end = e.Count
	}
	return end - start
}

// RelationType configures one relation (§3.1): which entity types its edges
// connect, which operator transforms embeddings, and the edge weight.
type RelationType struct {
	Name string
	// SourceType / DestType name entity types in the schema.
	SourceType string
	DestType   string
	// Operator selects the relation operator: "identity", "translation",
	// "diagonal", "linear", or "complex_diagonal". Validation of the value
	// happens in the model package where operators are constructed.
	Operator string
	// Weight scales this relation's contribution to the loss (per-relation
	// edge weight from the paper's feature list). Zero means 1.
	Weight float32
}

// EffectiveWeight returns Weight, defaulting to 1 when unset.
func (r RelationType) EffectiveWeight() float32 {
	if r.Weight == 0 {
		return 1
	}
	return r.Weight
}

// Schema is the static description of a multi-relation graph.
type Schema struct {
	Entities  []EntityType
	Relations []RelationType

	entityIndex map[string]int
}

// NewSchema validates and indexes the entity and relation declarations.
func NewSchema(entities []EntityType, relations []RelationType) (*Schema, error) {
	s := &Schema{Entities: entities, Relations: relations, entityIndex: make(map[string]int, len(entities))}
	for i, e := range entities {
		if e.Name == "" {
			return nil, fmt.Errorf("graph: entity %d has empty name", i)
		}
		if e.Count <= 0 {
			return nil, fmt.Errorf("graph: entity %q has non-positive count %d", e.Name, e.Count)
		}
		// Entity IDs are int32 throughout (edge columns, samplers,
		// evaluation candidates); a larger count would make int32(id)
		// casts wrap negative far from here, so reject it at the door.
		if e.Count > math.MaxInt32 {
			return nil, fmt.Errorf("graph: entity %q count %d exceeds the int32 entity-ID limit (%d); shard the type into more entity types instead", e.Name, e.Count, math.MaxInt32)
		}
		if e.NumPartitions <= 0 {
			return nil, fmt.Errorf("graph: entity %q has non-positive partitions %d", e.Name, e.NumPartitions)
		}
		if e.NumPartitions > e.Count {
			return nil, fmt.Errorf("graph: entity %q has more partitions (%d) than entities (%d)", e.Name, e.NumPartitions, e.Count)
		}
		if _, dup := s.entityIndex[e.Name]; dup {
			return nil, fmt.Errorf("graph: duplicate entity type %q", e.Name)
		}
		s.entityIndex[e.Name] = i
	}
	if len(relations) == 0 {
		return nil, fmt.Errorf("graph: schema needs at least one relation")
	}
	for i, r := range relations {
		if _, ok := s.entityIndex[r.SourceType]; !ok {
			return nil, fmt.Errorf("graph: relation %d (%q) references unknown source type %q", i, r.Name, r.SourceType)
		}
		if _, ok := s.entityIndex[r.DestType]; !ok {
			return nil, fmt.Errorf("graph: relation %d (%q) references unknown dest type %q", i, r.Name, r.DestType)
		}
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; for tests and generators
// with static declarations.
func MustSchema(entities []EntityType, relations []RelationType) *Schema {
	s, err := NewSchema(entities, relations)
	if err != nil {
		panic(err)
	}
	return s
}

// EntityTypeIndex returns the index of the named entity type, or -1.
func (s *Schema) EntityTypeIndex(name string) int {
	if i, ok := s.entityIndex[name]; ok {
		return i
	}
	return -1
}

// Entity returns the entity type declaration by name; panics if missing
// (schemas are validated at construction, so a miss is a programming error).
func (s *Schema) Entity(name string) EntityType {
	i := s.EntityTypeIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("graph: unknown entity type %q", name))
	}
	return s.Entities[i]
}

// SourceEntity returns the entity type on the source side of relation r.
func (s *Schema) SourceEntity(r int32) EntityType {
	return s.Entity(s.Relations[r].SourceType)
}

// DestEntity returns the entity type on the destination side of relation r.
func (s *Schema) DestEntity(r int32) EntityType {
	return s.Entity(s.Relations[r].DestType)
}

// BucketDims returns the bucket grid the schema induces: P_src × P_dst,
// each side's partition count maximised over relations. With one
// partitioned side it degenerates to P × 1, matching Figure 1 (center).
func (s *Schema) BucketDims() (nSrc, nDst int) {
	nSrc, nDst = 1, 1
	for _, r := range s.Relations {
		nSrc = max(nSrc, s.Entity(r.SourceType).NumPartitions)
		nDst = max(nDst, s.Entity(r.DestType).NumPartitions)
	}
	return nSrc, nDst
}

// EdgeList stores edges columnar: Srcs[i], Rels[i], Dsts[i] form edge i.
type EdgeList struct {
	Srcs []int32
	Rels []int32
	Dsts []int32
}

// Len returns the number of edges.
func (el *EdgeList) Len() int { return len(el.Srcs) }

// Append adds one edge.
func (el *EdgeList) Append(src, rel, dst int32) {
	el.Srcs = append(el.Srcs, src)
	el.Rels = append(el.Rels, rel)
	el.Dsts = append(el.Dsts, dst)
}

// Edge returns edge i.
func (el *EdgeList) Edge(i int) (src, rel, dst int32) {
	return el.Srcs[i], el.Rels[i], el.Dsts[i]
}

// Swap exchanges edges i and j (sort.Interface support).
func (el *EdgeList) Swap(i, j int) {
	el.Srcs[i], el.Srcs[j] = el.Srcs[j], el.Srcs[i]
	el.Rels[i], el.Rels[j] = el.Rels[j], el.Rels[i]
	el.Dsts[i], el.Dsts[j] = el.Dsts[j], el.Dsts[i]
}

// Clone deep-copies the edge list.
func (el *EdgeList) Clone() *EdgeList {
	out := &EdgeList{
		Srcs: make([]int32, len(el.Srcs)),
		Rels: make([]int32, len(el.Rels)),
		Dsts: make([]int32, len(el.Dsts)),
	}
	copy(out.Srcs, el.Srcs)
	copy(out.Rels, el.Rels)
	copy(out.Dsts, el.Dsts)
	return out
}

// Slice returns a view of edges [lo, hi) sharing the underlying arrays.
func (el *EdgeList) Slice(lo, hi int) *EdgeList {
	return &EdgeList{Srcs: el.Srcs[lo:hi], Rels: el.Rels[lo:hi], Dsts: el.Dsts[lo:hi]}
}

// Shuffle permutes edges uniformly using r.
func (el *EdgeList) Shuffle(r *rng.RNG) {
	r.Shuffle(el.Len(), el.Swap)
}

// Graph couples a schema with its positive training edges.
type Graph struct {
	Schema *Schema
	Edges  *EdgeList
}

// NewGraph validates that every edge's endpoints are within range for its
// relation's entity types.
func NewGraph(schema *Schema, edges *EdgeList) (*Graph, error) {
	nRel := int32(len(schema.Relations))
	for i := 0; i < edges.Len(); i++ {
		s, r, d := edges.Edge(i)
		if r < 0 || r >= nRel {
			return nil, fmt.Errorf("graph: edge %d has relation %d out of range [0,%d)", i, r, nRel)
		}
		se := schema.SourceEntity(r)
		de := schema.DestEntity(r)
		if s < 0 || int(s) >= se.Count {
			return nil, fmt.Errorf("graph: edge %d source %d out of range for type %q (count %d)", i, s, se.Name, se.Count)
		}
		if d < 0 || int(d) >= de.Count {
			return nil, fmt.Errorf("graph: edge %d dest %d out of range for type %q (count %d)", i, d, de.Name, de.Count)
		}
	}
	return &Graph{Schema: schema, Edges: edges}, nil
}

// MustGraph is NewGraph that panics on error.
func MustGraph(schema *Schema, edges *EdgeList) *Graph {
	g, err := NewGraph(schema, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Split divides the edges into train/valid/test with the given fractions
// (which must sum to ≤ 1; the remainder, if any, goes to train). The split is
// deterministic under seed. This reproduces the 75/25 (LiveJournal) and
// 90/5/5 (Freebase, Twitter) protocols from §5.
func (g *Graph) Split(validFrac, testFrac float64, seed uint64) (train, valid, test *Graph) {
	n := g.Edges.Len()
	perm := make([]int, n)
	rng.New(seed).Perm(perm)
	nValid := int(validFrac * float64(n))
	nTest := int(testFrac * float64(n))
	mk := func(idx []int) *Graph {
		el := &EdgeList{
			Srcs: make([]int32, len(idx)),
			Rels: make([]int32, len(idx)),
			Dsts: make([]int32, len(idx)),
		}
		for i, j := range idx {
			el.Srcs[i], el.Rels[i], el.Dsts[i] = g.Edges.Edge(j)
		}
		return &Graph{Schema: g.Schema, Edges: el}
	}
	valid = mk(perm[:nValid])
	test = mk(perm[nValid : nValid+nTest])
	train = mk(perm[nValid+nTest:])
	return train, valid, test
}

// Degrees holds per-entity appearance counts in the training edges, per
// entity type. It backs the data-prevalence negative sampler (§3.1) and the
// prevalence-weighted evaluation candidates (§5.4.2).
type Degrees struct {
	// ByType[t][id] counts appearances (as source or destination) of entity
	// id of entity type index t.
	ByType [][]float64
}

// ComputeDegrees tallies endpoint appearances over the graph's edges.
func ComputeDegrees(g *Graph) *Degrees {
	d := &Degrees{ByType: make([][]float64, len(g.Schema.Entities))}
	for t, e := range g.Schema.Entities {
		d.ByType[t] = make([]float64, e.Count)
	}
	for i := 0; i < g.Edges.Len(); i++ {
		s, r, dst := g.Edges.Edge(i)
		st := g.Schema.EntityTypeIndex(g.Schema.Relations[r].SourceType)
		dt := g.Schema.EntityTypeIndex(g.Schema.Relations[r].DestType)
		d.ByType[st][s]++
		d.ByType[dt][dst]++
	}
	return d
}

// EdgeSet holds the known-true edges of filtered evaluation (§5.4.1) as
// neighbour lists: the known destinations of each (relation, source) and the
// known sources of each (relation, destination), which are the candidates a
// filtered rank leaves out of a corrupted destination or source side.
type EdgeSet struct {
	dsts, srcs map[edgeEnd][]int32
}

// edgeEnd is a relation and one endpoint of an edge.
type edgeEnd struct{ rel, id int32 }

// NewEdgeSet builds the neighbour lists of the union of the given edge
// lists. An edge in more than one list appears more than once in its lists.
func NewEdgeSet(lists ...*EdgeList) *EdgeSet {
	es := &EdgeSet{dsts: map[edgeEnd][]int32{}, srcs: map[edgeEnd][]int32{}}
	for _, l := range lists {
		for i := 0; i < l.Len(); i++ {
			s, r, d := l.Edge(i)
			es.dsts[edgeEnd{r, s}] = append(es.dsts[edgeEnd{r, s}], d)
			es.srcs[edgeEnd{r, d}] = append(es.srcs[edgeEnd{r, d}], s)
		}
	}
	return es
}

// Destinations returns the known destinations of (src, rel, ·).
func (es *EdgeSet) Destinations(src, rel int32) []int32 { return es.dsts[edgeEnd{rel, src}] }

// Sources returns the known sources of (·, rel, dst).
func (es *EdgeSet) Sources(rel, dst int32) []int32 { return es.srcs[edgeEnd{rel, dst}] }

// SortByBucket sorts edges so that all edges of bucket (p1, p2) are
// contiguous, ordered by p1-major. It returns, for each bucket index
// p1*nDst+p2, the [lo, hi) range into the sorted list. nSrc and nDst are the
// partition counts of the (maximal) source/destination sides.
func SortByBucket(schema *Schema, edges *EdgeList, nSrc, nDst int) []BucketRange {
	keys := make([]int32, edges.Len())
	for i := 0; i < edges.Len(); i++ {
		s, r, d := edges.Edge(i)
		p1 := bucketSide(schema.SourceEntity(r), s, nSrc)
		p2 := bucketSide(schema.DestEntity(r), d, nDst)
		keys[i] = int32(p1*nDst + p2)
	}
	sort.Sort(&bucketSorter{edges: edges, keys: keys})
	ranges := make([]BucketRange, nSrc*nDst)
	for b := range ranges {
		ranges[b] = BucketRange{Lo: -1, Hi: -1}
	}
	for i := 0; i < edges.Len(); i++ {
		b := keys[i]
		if ranges[b].Lo < 0 {
			ranges[b].Lo = i
		}
		ranges[b].Hi = i + 1
	}
	for b := range ranges {
		if ranges[b].Lo < 0 {
			ranges[b].Lo = 0
			ranges[b].Hi = 0
		}
	}
	return ranges
}

// bucketSide maps an entity to its bucket coordinate. Unpartitioned entity
// types contribute coordinate 0 on their side (Figure 1 center: with all
// tail types unpartitioned, buckets collapse to P on the source side only).
func bucketSide(e EntityType, id int32, n int) int {
	if !e.Partitioned() {
		return 0
	}
	p := e.PartitionOf(id)
	if p >= n {
		panic(fmt.Sprintf("graph: partition %d out of range %d", p, n))
	}
	return p
}

// BucketRange is a [Lo, Hi) span of a bucket-sorted edge list.
type BucketRange struct{ Lo, Hi int }

// Empty reports whether the bucket holds no edges.
func (b BucketRange) Empty() bool { return b.Hi <= b.Lo }

// Len returns the number of edges in the bucket.
func (b BucketRange) Len() int { return b.Hi - b.Lo }

type bucketSorter struct {
	edges *EdgeList
	keys  []int32
}

func (s *bucketSorter) Len() int           { return len(s.keys) }
func (s *bucketSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *bucketSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.edges.Swap(i, j)
}
