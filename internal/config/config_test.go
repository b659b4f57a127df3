package config

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pbg/internal/graph"
)

// parseCases are configs Parse must reject, each with what its error names.
var parseCases = map[string]string{
	`{"dimension":8,"dynamic_relations":true}`:                                  `"dynamic_relations"`,
	`{"dimension":8,"entities":{"n":{"num_partitions":2,"featurized":true}}}`:   `"featurized"`,
	`{"dimension":8,"relations":[{"name":"r","lhs":"n","rhs":"n","weight":2}]}`: `"weight"`,
	`{"dimension":0}`:                                         "dimension",
	`{"dimension":8,"eval_fraction":1}`:                       "eval_fraction",
	`{"dimension":8,"codec":"int8"}`:                          `"codec"`,
	`{"dimension":8,"mem_budget":"-1MB"}`:                     "-1MB",
	`{"dimension":8,"relations":[{"name":"r"},{"name":"r"}]}`: `"r" is declared twice`,
	`{"dimension":8} {}`:                                      "after the top-level object",
}

func TestParseRejectsByName(t *testing.T) {
	for in, want := range parseCases {
		if _, err := Parse([]byte(in)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%s) = %v, want an error naming %s", in, err, want)
		}
	}
}

// roundTripConfig is a config with every field set.
const roundTripConfig = `{"dimension":16,"entities":{"node":{"num_partitions":4,"count":400}},
	"relations":[{"name":"follows","lhs":"node","rhs":"node"}],"comparator":"cos","loss_fn":"softmax",
	"lr":0.05,"num_epochs":3,"eval_fraction":0.1,"seed":9,"mem_budget":"64KB"}`

// FuzzConfig feeds Parse arbitrary bytes, as a run directory's config.json
// can hold: it must return an error or a config that re-encodes to a config
// Parse reads back unchanged, and building its schema must return an error
// or a schema, never panic.
func FuzzConfig(f *testing.F) {
	f.Add([]byte(roundTripConfig))
	for in := range parseCases {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data)
		if err != nil {
			return
		}
		_, _ = c.Schema()
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Parse(b)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("%s re-encoded as %s parses to %+v, %v; want %+v", data, b, again, err, c)
		}
	})
}

// TestAdopt: the input decides the types, counts and sides; the config the
// partitions and operators, by name; and what it names must exist.
func TestAdopt(t *testing.T) {
	in := graph.MustSchema(
		[]graph.EntityType{{Name: "user", Count: 100, NumPartitions: 1}, {Name: "item", Count: 10, NumPartitions: 1}},
		[]graph.RelationType{
			{Name: "buys", SourceType: "user", DestType: "item", Operator: "identity"},
			{Name: "views", SourceType: "user", DestType: "item", Operator: "identity"},
		},
	)
	c, err := Parse([]byte(`{"dimension":8,"entities":{"user":{"num_partitions":4,"count":7}},
		"relations":[{"name":"views","lhs":"item","rhs":"item","operator":"translation"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Adopt(in)
	if err != nil {
		t.Fatal(err)
	}
	// Types are indexed in name order.
	if got := s.Entities; len(got) != 2 || got[0] != (graph.EntityType{Name: "item", Count: 10, NumPartitions: 1}) ||
		got[1] != (graph.EntityType{Name: "user", Count: 100, NumPartitions: 4}) {
		t.Errorf("entities %+v", got)
	}
	if got := s.Relations; len(got) != 2 || got[0].Operator != "identity" || got[1].Operator != "translation" || got[1].DestType != "item" {
		t.Errorf("relations %+v", got)
	}
	for cfg, want := range map[string]string{
		`{"dimension":8,"entities":{"tag":{"num_partitions":1}}}`:                     `entity "tag" is not in the input`,
		`{"dimension":8,"relations":[{"name":"likes"}]}`:                              `relation "likes" is not in the input`,
		`{"dimension":8,"entities":{"user":{"num_partitions":200}}}`:                  "more partitions",
		`{"dimension":7,"relations":[{"name":"buys","operator":"complex_diagonal"}]}`: "even dimension",
	} {
		c, err := Parse([]byte(cfg))
		if err == nil {
			_, err = c.Adopt(in)
		}
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Adopt under %s = %v, want an error naming %s", cfg, err, want)
		}
	}
}

// TestWriteLoadRoundTrip: what import writes is what every other
// subcommand reads.
func TestWriteLoadRoundTrip(t *testing.T) {
	c, err := Parse([]byte(roundTripConfig))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Write(dir); err != nil {
		t.Fatal(err)
	}
	got, s, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tc, want := got.Train(), c.Train(); tc != want || tc.MemBudgetBytes != 64<<10 || tc.Loss != "softmax" || tc.Epochs != 3 {
		t.Errorf("train config %+v, want %+v", tc, want)
	}
	if e := s.Entities[0]; e.Count != 400 || e.NumPartitions != 4 || s.Relations[0].Name != "follows" {
		t.Errorf("schema %+v", s)
	}
}

// TestWriteReplacesWhole: Write replaces the config file rather than
// rewriting it in place, so a reader that opened the old file — or a crash
// mid-write — sees the whole of the old bytes, and no temporary file is left
// behind.
func TestWriteReplacesWhole(t *testing.T) {
	c, err := Parse([]byte(roundTripConfig))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := c.Write(dir); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, File)
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c.Seed, c.Entities = 10, nil
	if err := c.Write(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := io.ReadAll(f); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("the handle opened before Write read %q (%v), want the old %q", got, err, old)
	}
	if now, err := os.ReadFile(path); err != nil || bytes.Equal(now, old) {
		t.Fatalf("config.json after the second Write: %q, %v", now, err)
	}
	if names, _ := filepath.Glob(filepath.Join(dir, "*")); len(names) != 1 {
		t.Fatalf("directory holds %v, want config.json alone", names)
	}
}
