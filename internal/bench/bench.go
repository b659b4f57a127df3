// Package bench regenerates every table and figure from the paper's
// evaluation section (§5) on the synthetic dataset stand-ins. Each
// experiment is a function returning a formatted report whose rows mirror
// the paper's, so paper-vs-measured comparisons are mechanical. The same
// functions back cmd/pbg-bench and the root bench_test.go targets.
//
// Absolute values differ from the paper — the substrate is a Go simulator
// on synthetic graphs, not a 24-core Xeon on LiveJournal/Freebase — but the
// shapes the paper claims are asserted here: who wins, how memory scales
// with partitions, how time scales with machines, where batched negatives
// stop helping.
package bench

import (
	"bytes"
	"fmt"
	"text/tabwriter"
	"time"

	"pbg/internal/graph"
)

// Scale sizes an experiment run. Small completes in seconds (CI / go test
// -bench); Medium in minutes (cmd/pbg-bench).
type Scale struct {
	Name string

	// Social graph (LiveJournal/Twitter stand-ins).
	SocialNodes int
	SocialDeg   int

	// Community graph (YouTube stand-in).
	CommunityNodes  int
	CommunityEdges  int
	CommunityLabels int

	// Knowledge graph (FB15k / Freebase stand-ins).
	KGEntities  int
	KGRelations int
	KGEdges     int

	Dim int
	// Epochs drives the partition/distribution sweeps; SocialEpochs the
	// Table-1 quality comparisons (the paper grid-searches per dataset).
	Epochs       int
	SocialEpochs int
	KGEpochs     int
	// Fig4TableRows sizes the embedding table for the Figure-4 throughput
	// measurement; it must exceed LLC capacity for the memory-bandwidth
	// effect to appear.
	Fig4TableRows int
	EvalEdges     int
	EvalK         int
	Workers       int
	Seed          uint64
}

// SmallScale targets CI: each experiment in roughly a second or two.
var SmallScale = Scale{
	Name:        "small",
	SocialNodes: 2000, SocialDeg: 8,
	CommunityNodes: 1500, CommunityEdges: 12000, CommunityLabels: 12,
	KGEntities: 1000, KGRelations: 20, KGEdges: 40000,
	Dim: 16, Epochs: 4, SocialEpochs: 10, KGEpochs: 16, Fig4TableRows: 500000,
	EvalEdges: 250, EvalK: 100, Workers: 2, Seed: 7,
}

// MediumScale is cmd/pbg-bench's -scale medium.
var MediumScale = Scale{
	Name:        "medium",
	SocialNodes: 20000, SocialDeg: 10,
	CommunityNodes: 8000, CommunityEdges: 80000, CommunityLabels: 25,
	KGEntities: 6000, KGRelations: 40, KGEdges: 240000,
	Dim: 32, Epochs: 8, SocialEpochs: 12, KGEpochs: 12, Fig4TableRows: 2000000,
	EvalEdges: 1000, EvalK: 500, Workers: 2, Seed: 7,
}

// Report is one experiment's output: a human-readable table plus the raw
// rows for programmatic assertions.
type Report struct {
	ID    string
	Title string
	Rows  []Row
	Notes string
}

// Row is one line of a report table.
type Row struct {
	Label  string
	Values map[string]float64
}

// Value fetches a metric with a zero default.
func (r Row) Value(key string) float64 { return r.Values[key] }

// FindRow returns the first row whose label matches.
func (rep *Report) FindRow(label string) (Row, bool) {
	for _, r := range rep.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// Format renders the report as an aligned table with the given column
// order.
func (rep *Report) Format(columns []string) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s ==\n", rep.ID, rep.Title)
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "config")
	for _, c := range columns {
		fmt.Fprintf(w, "\t%s", c)
	}
	fmt.Fprintln(w)
	for _, row := range rep.Rows {
		fmt.Fprint(w, row.Label)
		for _, c := range columns {
			v, ok := row.Values[c]
			if !ok {
				fmt.Fprint(w, "\t-")
				continue
			}
			switch {
			case c == "time_s" || c == "mem_MB":
				fmt.Fprintf(w, "\t%.2f", v)
			case v >= 1000:
				fmt.Fprintf(w, "\t%.0f", v)
			default:
				fmt.Fprintf(w, "\t%.3f", v)
			}
		}
		fmt.Fprintln(w)
	}
	_ = w.Flush()
	if rep.Notes != "" {
		fmt.Fprintf(&buf, "note: %s\n", rep.Notes)
	}
	return buf.String()
}

// mb converts bytes to megabytes.
func mb(b int64) float64 { return float64(b) / (1 << 20) }

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// modelBytes estimates the full embedding-model footprint of a schema at
// dimension d: the quantity the paper's memory columns track (embeddings +
// per-row optimizer state).
func modelBytes(s *graph.Schema, dim int) int64 {
	var total int64
	for _, e := range s.Entities {
		total += int64(e.Count) * int64(dim+1) * 4
	}
	return total
}
