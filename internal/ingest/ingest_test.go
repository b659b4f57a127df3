package ingest

import (
	"strings"
	"testing"
)

func TestReadTSVTwoColumn(t *testing.T) {
	in := "alice bob\nbob carol\n# comment\nalice carol\n"
	res, err := ReadTSV(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Edges.Len() != 3 {
		t.Fatalf("edges = %d", res.Graph.Edges.Len())
	}
	if len(res.Names) != 3 {
		t.Fatalf("entities = %d", len(res.Names))
	}
	if len(res.RelNames) != 1 {
		t.Fatalf("relations = %d", len(res.RelNames))
	}
	// Round-trip an edge by name.
	s, _, d := res.Graph.Edges.Edge(0)
	if res.Names[s] != "alice" || res.Names[d] != "bob" {
		t.Fatalf("edge 0 = %s → %s", res.Names[s], res.Names[d])
	}
}

func TestReadTSVThreeColumn(t *testing.T) {
	in := "paris capital_of france\nberlin capital_of germany\nparis located_in europe\n"
	res, err := ReadTSV(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.RelNames) != 2 {
		t.Fatalf("relations = %d: %v", len(res.RelNames), res.RelNames)
	}
	if res.Graph.Schema.Relations[res.Relations["capital_of"]].Name != "capital_of" {
		t.Fatal("relation name not preserved")
	}
	if len(res.Names) != 5 {
		t.Fatalf("entities = %d", len(res.Names))
	}
}

func TestMinFrequencyFilter(t *testing.T) {
	// "rare" appears once; with MinFrequency 2 its edge is dropped.
	in := "a r b\na r b2\nb r a\nrare r a\n"
	res, err := ReadTSV(strings.NewReader(in), Options{MinFrequency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedEdges != 2 {
		t.Fatalf("dropped = %d, want 2 (rare src + b2 dst)", res.DroppedEdges)
	}
	if _, ok := res.Entities["rare"]; ok {
		t.Fatal("rare entity survived filter")
	}
}

func TestFilterEverythingErrors(t *testing.T) {
	in := "a r b\nc r d\n"
	if _, err := ReadTSV(strings.NewReader(in), Options{MinFrequency: 10}); err == nil {
		t.Fatal("expected error when filter removes all edges")
	}
}

func TestShuffleRelabelsConsistently(t *testing.T) {
	in := "a x b\nb x c\nc x a\nd x a\ne x a\nf x a\ng x a\nh x a\n"
	plain, err := ReadTSV(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	shuf, err := ReadTSV(strings.NewReader(in), Options{ShuffleSeed: 99})
	if err != nil {
		t.Fatal(err)
	}
	if shuf.Graph.Edges.Len() != plain.Graph.Edges.Len() {
		t.Fatal("edge count changed by shuffle")
	}
	// Dictionary must stay consistent: the edge list expressed in names is
	// identical.
	for i := 0; i < plain.Graph.Edges.Len(); i++ {
		s1, r1, d1 := plain.Graph.Edges.Edge(i)
		s2, r2, d2 := shuf.Graph.Edges.Edge(i)
		if plain.Names[s1] != shuf.Names[s2] || r1 != r2 || plain.Names[d1] != shuf.Names[d2] {
			t.Fatalf("edge %d differs by name after shuffle", i)
		}
	}
	// And the assignment is actually permuted (8 entities: the identity
	// permutation is vanishingly unlikely with this seed).
	same := true
	for name, id := range plain.Entities {
		if shuf.Entities[name] != id {
			same = false
		}
	}
	if same {
		t.Fatal("shuffle produced identity mapping")
	}
	// Names index is the inverse of Entities.
	for name, id := range shuf.Entities {
		if shuf.Names[id] != name {
			t.Fatalf("Names[%d] = %s, want %s", id, shuf.Names[id], name)
		}
	}
}

func TestMalformedLine(t *testing.T) {
	if _, err := ReadTSV(strings.NewReader("a b c d\n"), Options{}); err == nil {
		t.Fatal("expected error for 4 fields")
	}
	if _, err := ReadTSV(strings.NewReader(""), Options{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestImportedGraphIsTrainable(t *testing.T) {
	// End-to-end: the imported graph must be a valid training input.
	var sb strings.Builder
	for i := 0; i < 26; i++ {
		for j := 0; j < 26; j++ {
			if (i+j)%3 == 0 && i != j {
				sb.WriteString(string(rune('a'+i)) + " knows " + string(rune('a'+j)) + "\n")
			}
		}
	}
	res, err := ReadTSV(strings.NewReader(sb.String()), Options{ShuffleSeed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Graph.Schema.Entities[0].Count != 26 {
		t.Fatalf("entities = %d", res.Graph.Schema.Entities[0].Count)
	}
}
