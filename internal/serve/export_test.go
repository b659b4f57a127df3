package serve

import "pbg/internal/graph"

// OpenShardSetPrivate is OpenShardSet with the private-buffer byte source
// forced, so the parity test covers both sources on a platform that maps.
func OpenShardSetPrivate(dir string, schema *graph.Schema, dim int) (*ShardSet, error) {
	return openShardSet(dir, schema, dim, readImage)
}
