package pbg

import "pbg/internal/datagen"

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
