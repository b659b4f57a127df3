package datagen

import (
	"runtime"
	"testing"
)

// socialGolden pins Social's output bytes (edgeHash of the edge list). The
// hashes were recorded from the generator as it was when it deduplicated
// through one map keyed by (source, target) over the whole graph; the
// per-source dedup must reproduce them.
var socialGolden = []struct {
	name  string
	cfg   SocialConfig
	edges int
	hash  string
}{
	// The repo benchmark's social_ooc shape.
	{"social_ooc", SocialConfig{Nodes: 48000, AvgOutDegree: 4, NumPartitions: 16, Seed: 1}, 176403,
		"1bfa085126f73dc17791709e2545cce196b02dc3b77c2cd9c75478001297edc3"},
	{"20000x10", SocialConfig{Nodes: 20000, AvgOutDegree: 10, NumPartitions: 4, Seed: 1}, 164630,
		"eae20400909b067dbacfc5234186ad7dce739ff9a53c3b7532882759090f1c9e"},
	{"20000x6", SocialConfig{Nodes: 20000, AvgOutDegree: 6, NumPartitions: 4, Seed: 1}, 105741,
		"bf9bea356020ddb4e1d91bdbfe17cf60ed03de2c57036a8ec69ee4a22166a43c"},
	// Two communities of ~30: most draws repeat a target the source
	// already follows, or the source itself, and every target is some
	// other source's target too, so a dedup that looked across sources
	// would drop edges this one keeps.
	{"tiny", SocialConfig{Nodes: 60, AvgOutDegree: 8, NumPartitions: 2, Seed: 1}, 371,
		"c73955d9e5428a5709a3d6140c50e8fe5af6416bf7c384f0b93534e19f75c4e5"},
}

func TestSocialBytesMatchParent(t *testing.T) {
	if runtime.GOARCH != "amd64" && runtime.GOARCH != "386" {
		// The Zipf draws are floating point; elsewhere Go may fuse a
		// multiply and an add into one rounding and move them.
		t.Skip("hashes recorded on amd64, where Go does not fuse multiply-add")
	}
	for _, c := range socialGolden {
		g, err := Social(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hash := edgeHash(g.Edges)
		t.Logf("%s: %d edges %s", c.name, g.Edges.Len(), hash)
		if g.Edges.Len() != c.edges || hash != c.hash {
			t.Errorf("%s: %d edges hashing to %s, want %d and %s", c.name, g.Edges.Len(), hash, c.edges, c.hash)
		}
	}
}
