// Package ingest converts external edge lists into pbg graphs, mirroring
// the importer of the open-source PBG release: entities and relations are
// named by arbitrary strings in the input; the importer interns them into
// dense int32 IDs, optionally shuffles entity IDs (so contiguous-block
// partitioning equals the uniform assignment of §5.4.2), and applies a
// minimum-frequency filter (the paper keeps Freebase entities/relations
// appearing ≥ 5 times). The graph it returns has one partition and identity
// operators: a run's config.json decides both (config.Adopt).
package ingest

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"pbg/internal/graph"
	"pbg/internal/rng"
)

// Options configures an import.
type Options struct {
	// EntityType names the single entity type of the imported graph.
	EntityType string
	// MinFrequency drops entities and relations appearing fewer times
	// (paper §5.4.2 uses 5 for full Freebase). 0 keeps everything.
	MinFrequency int
	// ShuffleSeed, when non-zero, randomises the entity-ID assignment so
	// block partitioning is uniform.
	ShuffleSeed uint64
	// Comment prefixes a line to skip ("#" by default).
	Comment string
}

func (o Options) withDefaults() Options {
	if o.EntityType == "" {
		o.EntityType = "entity"
	}
	if o.Comment == "" {
		o.Comment = "#"
	}
	return o
}

// Result couples the imported graph with its dictionaries.
type Result struct {
	Graph *graph.Graph
	// Entities maps entity name → dense ID; Names is the inverse.
	Entities map[string]int32
	Names    []string
	// Relations maps relation name → relation index; RelNames the inverse.
	Relations map[string]int32
	RelNames  []string
	// DroppedEdges counts edges removed by the frequency filter.
	DroppedEdges int
}

// rawEdge is a parsed input line.
type rawEdge struct {
	src, rel, dst string
}

// ReadTSV imports whitespace-separated edges: "src dst" (single implicit
// relation) or "src rel dst".
func ReadTSV(r io.Reader, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var raws []rawEdge
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, opts.Comment) {
			continue
		}
		fields := strings.Fields(line)
		switch len(fields) {
		case 2:
			raws = append(raws, rawEdge{src: fields[0], rel: "__default__", dst: fields[1]})
		case 3:
			raws = append(raws, rawEdge{src: fields[0], rel: fields[1], dst: fields[2]})
		default:
			return nil, fmt.Errorf("ingest: line %d: want 2 or 3 fields, got %d", lineNo, len(fields))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return build(raws, opts)
}

func build(raws []rawEdge, opts Options) (*Result, error) {
	if len(raws) == 0 {
		return nil, fmt.Errorf("ingest: no edges in input")
	}
	// Frequency pass.
	entFreq := map[string]int{}
	relFreq := map[string]int{}
	for _, e := range raws {
		entFreq[e.src]++
		entFreq[e.dst]++
		relFreq[e.rel]++
	}
	keepEnt := func(name string) bool { return entFreq[name] >= opts.MinFrequency }
	keepRel := func(name string) bool { return relFreq[name] >= opts.MinFrequency }

	// Intern surviving names in first-seen order.
	res := &Result{
		Entities:  map[string]int32{},
		Relations: map[string]int32{},
	}
	entID := func(name string) int32 {
		if id, ok := res.Entities[name]; ok {
			return id
		}
		id := int32(len(res.Names))
		res.Entities[name] = id
		res.Names = append(res.Names, name)
		return id
	}
	relID := func(name string) int32 {
		if id, ok := res.Relations[name]; ok {
			return id
		}
		id := int32(len(res.RelNames))
		res.Relations[name] = id
		res.RelNames = append(res.RelNames, name)
		return id
	}
	el := &graph.EdgeList{}
	for _, e := range raws {
		if opts.MinFrequency > 0 && (!keepEnt(e.src) || !keepEnt(e.dst) || !keepRel(e.rel)) {
			res.DroppedEdges++
			continue
		}
		el.Append(entID(e.src), relID(e.rel), entID(e.dst))
	}
	if el.Len() == 0 {
		return nil, fmt.Errorf("ingest: frequency filter %d removed every edge", opts.MinFrequency)
	}

	// Optional uniform shuffle of entity IDs.
	if opts.ShuffleSeed != 0 {
		n := len(res.Names)
		perm := make([]int, n)
		rng.New(opts.ShuffleSeed).Perm(perm)
		// perm[old] = new
		newNames := make([]string, n)
		for old, name := range res.Names {
			res.Entities[name] = int32(perm[old])
			newNames[perm[old]] = name
		}
		res.Names = newNames
		for i := range el.Srcs {
			el.Srcs[i] = int32(perm[el.Srcs[i]])
			el.Dsts[i] = int32(perm[el.Dsts[i]])
		}
	}

	rels := make([]graph.RelationType, len(res.RelNames))
	for i, name := range res.RelNames {
		rels[i] = graph.RelationType{
			Name:       name,
			SourceType: opts.EntityType,
			DestType:   opts.EntityType,
			Operator:   "identity",
		}
	}
	schema, err := graph.NewSchema(
		[]graph.EntityType{{Name: opts.EntityType, Count: len(res.Names), NumPartitions: 1}},
		rels,
	)
	if err != nil {
		return nil, err
	}
	g, err := graph.NewGraph(schema, el)
	if err != nil {
		return nil, err
	}
	res.Graph = g
	return res, nil
}
