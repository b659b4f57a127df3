package datagen

import (
	"sort"
	"testing"

	"pbg/internal/graph"
)

func TestSocialBasicShape(t *testing.T) {
	g, err := Social(SocialConfig{Nodes: 2000, AvgOutDegree: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.Len() < 2000*3 {
		t.Fatalf("too few edges: %d", g.Edges.Len())
	}
	// No self loops, all in range (NewGraph validates range already).
	for i := 0; i < g.Edges.Len(); i++ {
		s, _, d := g.Edges.Edge(i)
		if s == d {
			t.Fatalf("self loop at %d", i)
		}
	}
}

func TestSocialDeterministic(t *testing.T) {
	a, _ := Social(SocialConfig{Nodes: 500, AvgOutDegree: 3, Seed: 9})
	b, _ := Social(SocialConfig{Nodes: 500, AvgOutDegree: 3, Seed: 9})
	if a.Edges.Len() != b.Edges.Len() {
		t.Fatal("nondeterministic edge count")
	}
	for i := 0; i < a.Edges.Len(); i++ {
		s1, r1, d1 := a.Edges.Edge(i)
		s2, r2, d2 := b.Edges.Edge(i)
		if s1 != s2 || r1 != r2 || d1 != d2 {
			t.Fatal("nondeterministic edges")
		}
	}
	c, _ := Social(SocialConfig{Nodes: 500, AvgOutDegree: 3, Seed: 10})
	diff := false
	for i := 0; i < min(a.Edges.Len(), c.Edges.Len()); i++ {
		s1, _, d1 := a.Edges.Edge(i)
		s2, _, d2 := c.Edges.Edge(i)
		if s1 != s2 || d1 != d2 {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestSocialHeavyTail(t *testing.T) {
	g, _ := Social(SocialConfig{Nodes: 5000, AvgOutDegree: 5, Seed: 2})
	deg := graph.ComputeDegrees(g)
	ds := append([]float64(nil), deg.ByType[0]...)
	sort.Float64s(ds)
	n := len(ds)
	top1 := 0.0
	for _, d := range ds[n-n/100:] {
		top1 += d
	}
	var total float64
	for _, d := range ds {
		total += d
	}
	// Heavy tail: top 1% of nodes should hold well above their uniform 1%
	// share of degree mass (per-community hubs dilute the global tail
	// relative to pure preferential attachment, so the bar is 2×).
	if top1/total < 0.02 {
		t.Fatalf("top-1%% degree share %v too uniform for a social graph", top1/total)
	}
	// And the single largest hub must dwarf the median node.
	if ds[n-1] < 10*ds[n/2] {
		t.Fatalf("max degree %v not ≫ median %v", ds[n-1], ds[n/2])
	}
}

func TestSocialRejectsBadConfig(t *testing.T) {
	if _, err := Social(SocialConfig{Nodes: 1, AvgOutDegree: 1}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Social(SocialConfig{Nodes: 10, AvgOutDegree: 0}); err == nil {
		t.Fatal("expected error")
	}
}

func TestCommunityLabelsAndEdges(t *testing.T) {
	cg, err := Community(CommunityConfig{
		Nodes: 2000, Communities: 10, Edges: 10000,
		ExtraLabelProb: 0.05, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cg.Graph.Edges.Len() != 10000 {
		t.Fatalf("edges = %d", cg.Graph.Edges.Len())
	}
	if cg.NumClasses != 10 {
		t.Fatalf("classes = %d", cg.NumClasses)
	}
	multi := 0
	for v, ls := range cg.Labels {
		if len(ls) == 0 {
			t.Fatalf("node %d has no labels", v)
		}
		if len(ls) > 1 {
			multi++
		}
		for _, l := range ls {
			if l < 0 || l >= 10 {
				t.Fatalf("label %d out of range", l)
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-label nodes despite ExtraLabelProb > 0")
	}
}

func TestCommunityHomophily(t *testing.T) {
	cg, _ := Community(CommunityConfig{
		Nodes: 3000, Communities: 12, Edges: 20000, InFrac: 0.9, Seed: 4,
	})
	shared := 0
	for i := 0; i < cg.Graph.Edges.Len(); i++ {
		s, _, d := cg.Graph.Edges.Edge(i)
		if cg.Labels[s][0] == cg.Labels[d][0] {
			shared++
		}
	}
	frac := float64(shared) / float64(cg.Graph.Edges.Len())
	if frac < 0.6 {
		t.Fatalf("intra-community edge fraction %v too low for InFrac=0.9", frac)
	}
}

func TestKnowledgeShape(t *testing.T) {
	g, err := Knowledge(KGConfig{Entities: 1000, Relations: 20, Edges: 8000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.Len() < 7000 {
		t.Fatalf("edges = %d, want ≈8000", g.Edges.Len())
	}
	if len(g.Schema.Relations) != 20 {
		t.Fatalf("relations = %d", len(g.Schema.Relations))
	}
	// All relations should be exercised... at least several given Zipf usage.
	relSeen := map[int32]bool{}
	for i := 0; i < g.Edges.Len(); i++ {
		_, r, _ := g.Edges.Edge(i)
		relSeen[r] = true
	}
	if len(relSeen) < 5 {
		t.Fatalf("only %d relations used", len(relSeen))
	}
	// Zipf usage: relation 0 dominates.
	counts := map[int32]int{}
	for i := 0; i < g.Edges.Len(); i++ {
		_, r, _ := g.Edges.Edge(i)
		counts[r]++
	}
	if counts[0] < counts[10] {
		t.Fatal("relation usage not skewed")
	}
}

func TestKnowledgeLearnableStructure(t *testing.T) {
	// The same (s, r) should prefer a small set of destinations — the graph
	// must not be pure noise. Check popularity skew of destinations.
	g, _ := Knowledge(KGConfig{Entities: 500, Relations: 5, Edges: 5000, Seed: 6})
	deg := graph.ComputeDegrees(g)
	ds := append([]float64(nil), deg.ByType[0]...)
	sort.Float64s(ds)
	n := len(ds)
	top, bottom := 0.0, 0.0
	for _, d := range ds[n-50:] {
		top += d
	}
	for _, d := range ds[:50] {
		bottom += d
	}
	if top < bottom*5 {
		t.Fatalf("no popularity skew: top50=%v bottom50=%v", top, bottom)
	}
}

func TestKnowledgeDeterministic(t *testing.T) {
	a, _ := Knowledge(KGConfig{Entities: 300, Relations: 4, Edges: 1000, Seed: 7})
	b, _ := Knowledge(KGConfig{Entities: 300, Relations: 4, Edges: 1000, Seed: 7})
	if a.Edges.Len() != b.Edges.Len() {
		t.Fatal("nondeterministic")
	}
	for i := 0; i < a.Edges.Len(); i++ {
		s1, r1, d1 := a.Edges.Edge(i)
		s2, r2, d2 := b.Edges.Edge(i)
		if s1 != s2 || r1 != r2 || d1 != d2 {
			t.Fatal("nondeterministic edges")
		}
	}
}

func TestBipartiteTypesAndRanges(t *testing.T) {
	g, err := Bipartite(BipartiteConfig{Users: 1000, Items: 50, Edges: 5000, UserPartitions: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Schema.Entities) != 2 {
		t.Fatal("want two entity types")
	}
	if g.Schema.Entities[0].NumPartitions != 4 || g.Schema.Entities[1].NumPartitions != 1 {
		t.Fatal("partitioning config not honoured")
	}
	for i := 0; i < g.Edges.Len(); i++ {
		s, _, d := g.Edges.Edge(i)
		if int(s) >= 1000 || int(d) >= 50 {
			t.Fatalf("edge (%d,%d) out of range", s, d)
		}
	}
	// Item popularity must be skewed.
	deg := graph.ComputeDegrees(g)
	items := deg.ByType[1]
	maxDeg, minDeg := items[0], items[0]
	for _, d := range items {
		if d > maxDeg {
			maxDeg = d
		}
		if d < minDeg {
			minDeg = d
		}
	}
	if maxDeg < 10*minDeg+10 {
		t.Fatalf("item popularity too flat: max %v min %v", maxDeg, minDeg)
	}
}

func TestBipartiteBadConfig(t *testing.T) {
	if _, err := Bipartite(BipartiteConfig{Users: 0, Items: 5, Edges: 10}); err == nil {
		t.Fatal("expected error")
	}
}
