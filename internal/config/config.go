// Package config is the one description of a run: the config.json at the
// root of a run directory, which every pbg subcommand reads and no command
// line repeats. Field names follow PyTorch-BigGraph's raw_config (entities,
// relations, dimension, comparator, loss_fn, lr, num_epochs, eval_fraction)
// plus seed, mem_budget and codec. The parser rejects a field it does not
// know by name, so a PBG field this reproduction does not implement
// (dynamic_relations, global_emb, …) fails loudly instead of being ignored.
//
// pbg import reads a config whose schema may be partial, completes it from
// the input (Adopt) and writes it into the run directory, where Load reads
// it back.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"pbg/internal/graph"
	"pbg/internal/model"
	"pbg/internal/storage"
	"pbg/internal/train"
)

// File is the config's name inside a run directory.
const File = "config.json"

// Config is a run's settings and, once imported, its graph schema. Zero
// values of the training fields pick train.Config's defaults.
type Config struct {
	// Entities maps each entity type to its partitioning and, in a run
	// directory, the entity count the input produced. Types are indexed in
	// name order: shard type t of a run is the t-th name in sorted order.
	Entities  map[string]Entity `json:"entities"`
	Relations []Relation        `json:"relations"`
	Dimension int               `json:"dimension"`
	// Comparator, LossFn, LR, NumEpochs and Seed are train.Config's
	// Comparator, Loss, LR, Epochs and Seed. Seed also drives the synthetic
	// generators and the import's train/test split.
	Comparator string  `json:"comparator,omitempty"`
	LossFn     string  `json:"loss_fn,omitempty"`
	LR         float64 `json:"lr,omitempty"`
	NumEpochs  int     `json:"num_epochs,omitempty"`
	// EvalFraction is the share of the input's edges pbg import holds out
	// as the run's test edges.
	EvalFraction float64 `json:"eval_fraction,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	// MemBudget is train.Config.MemBudgetBytes as a byte size such as
	// "256MB" (storage.ParseByteSize; empty = unbounded), Codec its Codec.
	MemBudget string `json:"mem_budget,omitempty"`
	Codec     string `json:"codec,omitempty"`
}

// Entity is one entity type's entry.
type Entity struct {
	NumPartitions int `json:"num_partitions"`
	Count         int `json:"count,omitempty"`
}

// Relation is one relation's entry: its name, the entity types of its
// source (lhs) and destination (rhs) sides, and its operator.
type Relation struct {
	Name     string `json:"name"`
	LHS      string `json:"lhs"`
	RHS      string `json:"rhs"`
	Operator string `json:"operator,omitempty"`
}

// Parse decodes and checks a config. The schema may still be partial; the
// settings must all be valid.
func Parse(b []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	c := &Config{}
	if err := dec.Decode(c); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("config: data after the top-level object")
	}
	budget, err := storage.ParseByteSize(c.MemBudget)
	if err == nil {
		err = train.ValidateRunFlags(c.Codec, budget)
	}
	switch {
	case err != nil:
	case c.Dimension <= 0:
		err = fmt.Errorf("dimension must be positive, got %d", c.Dimension)
	case c.LR < 0 || c.NumEpochs < 0:
		err = fmt.Errorf("lr %g and num_epochs %d must not be negative", c.LR, c.NumEpochs)
	case !(c.EvalFraction >= 0 && c.EvalFraction < 1):
		err = fmt.Errorf("eval_fraction must be in [0, 1), got %g", c.EvalFraction)
	}
	seen := make(map[string]bool, len(c.Relations))
	for _, r := range c.Relations {
		if err == nil && seen[r.Name] {
			err = fmt.Errorf("relation %q is declared twice", r.Name)
		}
		seen[r.Name] = true
	}
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return c, nil
}

// Load reads the config of the run directory dir and the schema it
// describes.
func Load(dir string) (*Config, *graph.Schema, error) {
	b, err := os.ReadFile(filepath.Join(dir, File))
	if err != nil {
		return nil, nil, err
	}
	c, err := Parse(b)
	if err != nil {
		return nil, nil, err
	}
	s, err := c.Schema()
	return c, s, err
}

// Write stores c as dir's config, replacing any config there whole: a
// crash mid-write leaves the old file or the new, never a torn one.
func (c *Config) Write(dir string) error {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	return storage.WriteFileAtomic(filepath.Join(dir, File), append(b, '\n'))
}

// Schema builds the graph schema c describes, validated by graph.NewSchema,
// and checks that every relation's operator, the comparator and the loss
// build a scorer at c's dimension.
func (c *Config) Schema() (*graph.Schema, error) {
	names := make([]string, 0, len(c.Entities))
	for name := range c.Entities {
		names = append(names, name)
	}
	sort.Strings(names)
	ents := make([]graph.EntityType, len(names))
	for i, name := range names {
		ents[i] = graph.EntityType{Name: name, Count: c.Entities[name].Count, NumPartitions: c.Entities[name].NumPartitions}
	}
	rels := make([]graph.RelationType, len(c.Relations))
	for i, r := range c.Relations {
		if _, err := model.NewScorer(c.Dimension, r.Operator, c.Comparator, c.LossFn, 0, false); err != nil {
			return nil, fmt.Errorf("config: relation %q: %w", r.Name, err)
		}
		rels[i] = graph.RelationType{Name: r.Name, SourceType: r.LHS, DestType: r.RHS, Operator: r.Operator}
	}
	s, err := graph.NewSchema(ents, rels)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	return s, nil
}

// Adopt completes c from the schema an input produced and returns the
// result's schema. The input decides which entity types and relations
// exist, each type's entity count and each relation's sides, so a run's
// config.json imports another input unchanged; c decides each type's
// partitions (1 when c does not name the type) and each relation's operator
// (the input's when c does not name one). An entity type or relation c
// names that the input lacks is an error.
func (c *Config) Adopt(in *graph.Schema) (*graph.Schema, error) {
	ents := make(map[string]Entity, len(in.Entities))
	for _, e := range in.Entities {
		ce := c.Entities[e.Name]
		if ce.NumPartitions == 0 {
			ce.NumPartitions = 1
		}
		ce.Count = e.Count
		ents[e.Name] = ce
	}
	for name := range c.Entities {
		if _, ok := ents[name]; !ok {
			return nil, fmt.Errorf("config: entity %q is not in the input", name)
		}
	}
	rels := make([]Relation, len(in.Relations))
	index := make(map[string]int, len(in.Relations))
	for i, r := range in.Relations {
		rels[i] = Relation{Name: r.Name, LHS: r.SourceType, RHS: r.DestType, Operator: r.Operator}
		index[r.Name] = i
	}
	for _, d := range c.Relations {
		i, ok := index[d.Name]
		if !ok {
			return nil, fmt.Errorf("config: relation %q is not in the input", d.Name)
		}
		if d.Operator != "" {
			rels[i].Operator = d.Operator
		}
	}
	c.Entities, c.Relations = ents, rels
	return c.Schema()
}

// Train is the training configuration c describes; the per-process fields
// (Workers, Obs) are the caller's.
func (c *Config) Train() train.Config {
	budget, _ := storage.ParseByteSize(c.MemBudget) // Parse checked it
	return train.Config{
		Dim: c.Dimension, Comparator: c.Comparator, Loss: c.LossFn, LR: float32(c.LR),
		Epochs: c.NumEpochs, Seed: c.Seed, MemBudgetBytes: budget, Codec: c.Codec,
	}
}
