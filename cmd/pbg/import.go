package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pbg/internal/config"
	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/ingest"
	"pbg/internal/storage"
)

// runImport writes a run directory: the config completed with the schema
// the input produced (config.Adopt), and the input's edges split into
// train.edges and test.edges by eval_fraction under seed.
func runImport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	cfgPath := fs.String("config", "", "run config: JSON with PBG's raw_config field names")
	in := fs.String("in", "", "text edge list, 'src dst' or 'src rel dst' per line, names are arbitrary strings")
	synthetic := fs.String("synthetic", "", "generate the input instead: social, knowledge or bipartite")
	nodes := fs.Int("nodes", 10000, "synthetic: nodes, entities or users. knowledge costs O(edges × candidate pool) and its pool is nodes/3, so it is quadratic in -nodes: about 16 s at the defaults on 2 vCPUs")
	degree := fs.Int("degree", 10, "synthetic: average out-degree")
	relations := fs.Int("relations", 20, "synthetic knowledge graph: relations")
	dir := fs.String("dir", "", "run directory to create")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cfgPath == "" || *dir == "" {
		return errors.New("import needs -config and -dir")
	}
	if _, err := os.Stat(filepath.Join(*dir, config.File)); err == nil {
		return fmt.Errorf("%s already holds a run", *dir)
	}
	b, err := os.ReadFile(*cfgPath)
	if err != nil {
		return err
	}
	cfg, err := config.Parse(b)
	if err != nil {
		return err
	}
	g, err := readInput(cfg, *in, *synthetic, *nodes, *degree, *relations)
	if err != nil {
		return err
	}
	schema, err := cfg.Adopt(g.Schema)
	if err != nil {
		return err
	}
	g = &graph.Graph{Schema: schema, Edges: g.Edges} // Adopt kept every count and relation index
	// Without held-out edges the input order is kept, so a run trains on
	// exactly the edges, in the order, the input gave.
	trainG, testG := g, &graph.Graph{Schema: schema, Edges: &graph.EdgeList{}}
	if cfg.EvalFraction > 0 {
		trainG, _, testG = g.Split(0, cfg.EvalFraction, cfg.Seed)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for name, el := range map[string]*graph.EdgeList{trainEdges: trainG.Edges, testEdges: testG.Edges} {
		if err := storage.WriteEdges(filepath.Join(*dir, name), el); err != nil {
			return err
		}
	}
	if err := cfg.Write(*dir); err != nil {
		return err
	}
	fmt.Fprintf(out, "imported %d entity types, %d relations: %d train and %d test edges in %s\n",
		len(schema.Entities), len(schema.Relations), trainG.Edges.Len(), testG.Edges.Len(), *dir)
	return nil
}

// readInput reads the text edge list in, or generates the synthetic graph
// named by synthetic under the config's seed.
func readInput(cfg *config.Config, in, synthetic string, nodes, degree, relations int) (*graph.Graph, error) {
	switch {
	case in != "" && synthetic != "":
		return nil, errors.New("-in and -synthetic are exclusive")
	case in != "":
		// A text edge list holds one entity type, named after the config's
		// only one when it declares one. Its IDs are shuffled under the seed,
		// so the contiguous partition blocks are a uniform assignment.
		if len(cfg.Entities) > 1 {
			return nil, fmt.Errorf("a text edge list has one entity type; the config declares %d", len(cfg.Entities))
		}
		opts := ingest.Options{ShuffleSeed: cfg.Seed + 1}
		for name := range cfg.Entities {
			opts.EntityType = name
		}
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		res, err := ingest.ReadTSV(f, opts)
		if err != nil {
			return nil, err
		}
		return res.Graph, nil
	case synthetic == "social":
		return datagen.Social(datagen.SocialConfig{Nodes: nodes, AvgOutDegree: degree, Seed: cfg.Seed})
	case synthetic == "knowledge":
		return datagen.Knowledge(datagen.KGConfig{Entities: nodes, Relations: relations, Edges: nodes * degree * 2, Seed: cfg.Seed})
	case synthetic == "bipartite":
		return datagen.Bipartite(datagen.BipartiteConfig{Users: nodes, Items: nodes / 100, Edges: nodes * degree, Seed: cfg.Seed})
	}
	return nil, fmt.Errorf("import needs -in or -synthetic social|knowledge|bipartite, not %q", synthetic)
}
