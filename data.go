package pbg

import (
	"io"

	"pbg/internal/datagen"
	"pbg/internal/graph"
	"pbg/internal/ingest"
)

// The paper's datasets (LiveJournal, Twitter, YouTube from SNAP/Tang&Liu,
// the Freebase dumps) cannot ship with this repository; these generators
// produce synthetic graphs with the same structural properties so every
// experiment remains runnable.

// SocialGraphConfig configures the LiveJournal/Twitter stand-in.
type SocialGraphConfig = datagen.SocialConfig

// SocialGraph generates a directed follow graph with heavy-tailed degrees
// and community structure.
func SocialGraph(cfg SocialGraphConfig) (*Graph, error) { return datagen.Social(cfg) }

// KnowledgeGraphConfig configures the FB15k / Freebase stand-in.
type KnowledgeGraphConfig = datagen.KGConfig

// KnowledgeGraph generates a multi-relation graph from a latent-factor
// ground-truth model with Zipf popularity.
func KnowledgeGraph(cfg KnowledgeGraphConfig) (*Graph, error) { return datagen.Knowledge(cfg) }

// CommunityGraphConfig configures the YouTube stand-in.
type CommunityGraphConfig = datagen.CommunityConfig

// LabeledGraph couples a graph with multi-label node ground truth.
type LabeledGraph = datagen.CommunityGraph

// CommunityGraph generates a social graph with multi-label community ground
// truth for downstream classification.
func CommunityGraph(cfg CommunityGraphConfig) (*LabeledGraph, error) { return datagen.Community(cfg) }

// BipartiteGraphConfig configures the user×item stand-in of §3.1.
type BipartiteGraphConfig = datagen.BipartiteConfig

// BipartiteGraph generates a two-entity-type purchase graph.
func BipartiteGraph(cfg BipartiteGraphConfig) (*Graph, error) { return datagen.Bipartite(cfg) }

// ComputeDegrees tallies entity appearances in a graph's edges (input to
// prevalence-based negative sampling and evaluation).
func ComputeDegrees(g *Graph) *graph.Degrees { return graph.ComputeDegrees(g) }

// ImportOptions configures ImportTSV; see internal/ingest for field docs.
type ImportOptions = ingest.Options

// ImportResult couples an imported graph with its name dictionaries.
type ImportResult = ingest.Result

// ImportTSV reads a whitespace-separated edge list ("src dst" or
// "src rel dst" per line) with arbitrary string names, interning entities
// and relations into dense IDs — the equivalent of the open-source PBG
// importer, including the ≥N frequency filter the paper applies to the full
// Freebase dump (§5.4.2).
func ImportTSV(r io.Reader, opts ImportOptions) (*ImportResult, error) {
	return ingest.ReadTSV(r, opts)
}
