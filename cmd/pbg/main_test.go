package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pbg"
	"pbg/internal/serve"
	"pbg/internal/storage"
)

// pbgRun runs one subcommand in process and returns what it printed.
func pbgRun(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("pbg %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// writeFile writes content to a new file named name and returns its path.
func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// importSocial imports a P=4 social graph under cfg into a new run
// directory.
func importSocial(t *testing.T, cfg string) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "run")
	pbgRun(t, "import", "-config", writeFile(t, "config.json", cfg), "-synthetic", "social", "-nodes", "600", "-degree", "8", "-dir", dir)
	return dir
}

// TestImportTSV: a text edge list imports under the config's entity type,
// partitions and operators, every line one edge of train or test, and the
// directory is written once.
func TestImportTSV(t *testing.T) {
	var tsv strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&tsv, "u%d likes u%d\n", i, (i*7+1)%40)
	}
	cfg := writeFile(t, "config.json", `{"entities":{"user":{"num_partitions":2}},"dimension":8,
		"relations":[{"name":"likes","operator":"translation"}],"eval_fraction":0.1}`)
	in := writeFile(t, "edges.tsv", tsv.String())
	dir := filepath.Join(t.TempDir(), "run")
	pbgRun(t, "import", "-config", cfg, "-in", in, "-dir", dir)
	rd, gs, err := openRun(dir, trainEdges, testEdges)
	if err != nil {
		t.Fatal(err)
	}
	if e, r := rd.schema.Entities[0], rd.schema.Relations[0]; e.Name != "user" || e.Count != 40 || e.NumPartitions != 2 ||
		r.Name != "likes" || r.Operator != "translation" {
		t.Errorf("schema %+v %+v", rd.schema.Entities, rd.schema.Relations)
	}
	if n, m := gs[0].Edges.Len(), gs[1].Edges.Len(); n+m != 40 || m != 4 {
		t.Errorf("%d train + %d test edges of 40", n, m)
	}
	if err := run([]string{"import", "-config", cfg, "-in", in, "-dir", dir}, io.Discard); err == nil {
		t.Error("a second import into the same directory succeeded")
	}
}

// TestImportTrainEvalServe drives a run through every single-machine step:
// eval ranks only edges train never saw, and serve answers from the
// checkpoint train left, with the schema and comparator of the config.
func TestImportTrainEvalServe(t *testing.T) {
	dir := importSocial(t, `{"entities":{"node":{"num_partitions":4}},"dimension":16,"comparator":"cos",
		"num_epochs":4,"eval_fraction":0.1,"seed":3}`)
	rd, gs, err := openRun(dir, trainEdges, testEdges)
	if err != nil {
		t.Fatal(err)
	}
	trainG, testG := gs[0], gs[1]
	trained := map[[3]int32]bool{}
	for i := 0; i < trainG.Edges.Len(); i++ {
		s, r, d := trainG.Edges.Edge(i)
		trained[[3]int32{s, r, d}] = true
	}
	for i := 0; i < testG.Edges.Len(); i++ {
		if s, r, d := testG.Edges.Edge(i); trained[[3]int32{s, r, d}] {
			t.Fatalf("test edge %d (%d %d %d) is also a training edge", i, s, r, d)
		}
	}
	g, err := pbg.SocialGraph(pbg.SocialGraphConfig{Nodes: 600, AvgOutDegree: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n := g.Edges.Len(); trainG.Edges.Len()+testG.Edges.Len() != n || testG.Edges.Len() != n/10 {
		t.Fatalf("%d train + %d test edges of %d", trainG.Edges.Len(), testG.Edges.Len(), n)
	}

	pbgRun(t, "train", "-dir", dir, "-workers", "1")
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) > 0 {
		t.Fatalf("train left temporary files behind: %v", tmp)
	}

	out := pbgRun(t, "eval", "-dir", dir, "-k", "100", "-max", "0")
	m := regexp.MustCompile(`MRR ([0-9.]+) .*\(n=(\d+)\)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no metrics in %q", out)
	}
	mrr, _ := strconv.ParseFloat(m[1], 64)
	if n, _ := strconv.Atoi(m[2]); n != testG.Edges.Len() || mrr < 0.1 {
		t.Fatalf("eval ranked %s of %d test edges at MRR %v; random over 100 candidates is ~0.05", m[2], testG.Edges.Len(), mrr)
	}

	s, err := openServer(rd, serve.Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src, rel, dst := testG.Edges.Edge(0)
	res, err := s.TopK([]serve.TopKRequest{{Rel: int(rel), SrcID: src, K: 5}})
	if err != nil || len(res[0].IDs) != 5 || res[0].Probed == 0 {
		t.Fatalf("TopK over the IVF index: %+v, %v", res, err)
	}
	if rank, err := s.Rank(int(rel), src, dst); err != nil || rank < 1 || rank > 600 {
		t.Fatalf("Rank of held-out edge (%d %d %d) = %v, %v", src, rel, dst, rank, err)
	}
}

// TestTrainMatchesTrainOnDisk: pbg train is pbg.TrainOnDisk over the run's
// train split and config — the same shard bytes at one worker — and its
// checkpoint into the directory it swaps through writes each shard once,
// leaving nothing half-written, also when the budget keeps dirty shards
// resident to the end.
func TestTrainMatchesTrainOnDisk(t *testing.T) {
	dir := importSocial(t, `{"entities":{"node":{"num_partitions":4}},"dimension":16,"num_epochs":3,
		"eval_fraction":0.05,"seed":5,"mem_budget":"32KB"}`)
	pbgRun(t, "train", "-dir", dir, "-workers", "1")

	rd, gs, err := openRun(dir, trainEdges)
	if err != nil {
		t.Fatal(err)
	}
	g, cfg := gs[0], rd.cfg.Train()
	cfg.Workers = 1
	other := t.TempDir()
	m, err := pbg.TrainOnDisk(g, other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		a, aerr := os.ReadFile(storage.ShardPath(dir, 0, p))
		b, berr := os.ReadFile(storage.ShardPath(other, 0, p))
		if aerr != nil || berr != nil || sha256.Sum256(a) != sha256.Sum256(b) {
			t.Fatalf("shard %d: pbg train and TrainOnDisk differ (%v, %v)", p, aerr, berr)
		}
	}
	if tmp, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmp) > 0 {
		t.Fatalf("train left temporary files behind: %v", tmp)
	}
}

// TestEvalWritesNothing: pbg eval reads the checkpoint and leaves it alone —
// every shard file is the same file with the same mtime afterwards — and
// prints what Model.Evaluate computes for the same model read through a
// DiskStore view, the read path eval used to take (and which wrote every
// shard it read back into a new file).
func TestEvalWritesNothing(t *testing.T) {
	dir := importSocial(t, `{"entities":{"node":{"num_partitions":4}},"dimension":16,"num_epochs":2,"eval_fraction":0.1,"seed":7}`)
	pbgRun(t, "train", "-dir", dir, "-workers", "1")
	shards, err := filepath.Glob(filepath.Join(dir, "shard_*.pbg"))
	if err != nil || len(shards) != 4 {
		t.Fatalf("shards %v, %v", shards, err)
	}
	before := make([]os.FileInfo, len(shards))
	for i, path := range shards {
		if before[i], err = os.Stat(path); err != nil {
			t.Fatal(err)
		}
	}
	out := pbgRun(t, "eval", "-dir", dir, "-k", "100", "-max", "0", "-filtered")
	for i, path := range shards {
		after, err := os.Stat(path)
		if err != nil || !os.SameFile(before[i], after) || !after.ModTime().Equal(before[i].ModTime()) {
			t.Errorf("%s: pbg eval replaced or rewrote it (%v)", filepath.Base(path), err)
		}
	}

	rd, gs, err := openRun(dir, trainEdges, testEdges)
	if err != nil {
		t.Fatal(err)
	}
	cfg := rd.cfg.Train()
	cfg.Workers = 1
	m, err := pbg.TrainOnDisk(gs[0], t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	want, err := m.Evaluate(gs[1], pbg.EvalOptions{Candidates: 100, Filtered: true, Known: []*pbg.EdgeList{gs[1].Edges}, Seed: rd.cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, want.String()) {
		t.Fatalf("pbg eval printed %q, Model.Evaluate over the same model gives %q", out, want)
	}
}
