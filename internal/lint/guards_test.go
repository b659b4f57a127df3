package lint

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"slices"
	"strings"
	"testing"
)

// A guard is a "one X" invariant of the product written as a row: no line of
// a file in the row's scope may match forbid. The scope is the files a
// pathspec names: with no dirs, every .go file of the tree (testdata
// included) except _test.go files, benchmark/ and dot directories, widened
// by tests, bench and asm; with dirs, every file under those directories
// except _test.go files. allow, when set, is the one file that is the X.
// Binary files and this file, which spells every pattern, are never read.
// mutant is a line the guard must catch, and why is the reason and the
// measurement that settled it (docs/ARCHITECTURE.md, "What earns its keep").
type guard struct {
	name   string
	dirs   []string // slash paths from the module root
	tests  bool     // _test.go files too
	bench  bool     // benchmark/ too
	asm    bool     // .s files too
	allow  string   // slash path from the module root
	forbid *regexp.Regexp
	mutant string
	why    string
}

// guardTable is this file, as a slash path from the module root.
const guardTable = "internal/lint/guards_test.go"

var guards = []guard{
	{
		name:   "one wire",
		forbid: regexp.MustCompile(`"(encoding/gob|net/rpc)(/[^"]*)?"`),
		mutant: `import _ "net/rpc"`,
		why:    "internal/wire is the one transport under dist and serve: a partition moves socket to shard memory with no copy and no fresh buffer (one Get + Put of social_dist's 1.3 MB shard 3.8 ms and 7.8 MB allocated on net/rpc + gob, 1.1 ms and ~2 KB framed); no non-test package may import encoding/gob or net/rpc again",
	},
	{
		name:   "one schedule: knobs",
		forbid: regexp.MustCompile(`PipelineOff|MaxLookahead|OrderSequential|OrderRandom|OrderChained|stridedOrder|buffer-slots|max-lookahead|StratumParts|RelationLR`),
		mutant: "func stridedOrder(p int) []int { return nil }",
		why:    "the memory budget plans the bucket order and sets the prefetch depth once, in train.New; the deleted scheduling knobs and orderings won no plan and ran in no workload (the strided walk won 29 of 435 plans, none a workload's)",
	},
	{
		name:   "one schedule: controller",
		tests:  true,
		forbid: regexp.MustCompile(`adaptLookahead|LookaheadAction|lookaheadWidenIOWait|lookahead_decisions|BatchSize`),
		mutant: "const lookaheadWidenIOWait = 0.05",
		why:    "the adaptive lookahead controller reached the budget's depth after one epoch on every workload (train.lookahead_final 2 on social_ooc, 1 elsewhere) and nothing read Config.BatchSize; neither may come back into any code, tests included",
	},
	{
		name:   "one serve row format",
		forbid: regexp.MustCompile(`quantRows|BuildQuant|WriteQuantCopy|QuantShardPath|rerankFP32|build-quant|\.q\.pbg`),
		mutant: "func (s *Server) BuildQuant(c storage.Codec) error { return nil }",
		why:    "every served shard is fp32 rows; a quantized sibling scan with an fp32 re-rank served 0.53x the exact fp32 QPS at int8 and 0.33x at fp16",
	},
	{
		name:   "one atomic replace",
		allow:  "internal/storage/replace.go",
		forbid: regexp.MustCompile(`os\.Rename\(|os\.Link\(`),
		mutant: "func publish(tmp, path string) error { return os.Rename(tmp, path) }",
		why:    "every file is published by storage's one writer under one crash model, and a shard write-back rewrites the image it displaced only when no other name or reader sees it; its own temp + rename beside it would skip both checks",
	},
	{
		name:   "one buffer cycle",
		forbid: regexp.MustCompile(`Recycler|\.Recycle\(|maxFreeShards|snapBytes|startSnapshotWrite|NewPassthrough`),
		mutant: "type Recycler interface{ Recycle(s *Shard) }",
		why:    "the shard cache owns the one free list every load decodes into, and every write stores the live buffers; the optional Recycler, the remote free list, the snapshot write path and the emulated storetest cache it replaced allocated 1.55 MB per warm social_ooc load + write cycle, against ~2 KB",
	},
	{
		name:   "one block scorer: reverse scorer",
		tests:  true,
		forbid: regexp.MustCompile(`Score[R]everse`),
		mutant: "func (s *Scorer) ScoreReverse(d []float32) float32 { return 0 }",
		why:    "eval ranks every mode, side and filter through one path, each (edge, side) one CrossScoresRows block over [query; true endpoint; candidates] with the filter a mask; the per-candidate reverse scorer must not come back into any code, tests included",
	},
	{
		name:   "one block scorer: eval calls",
		dirs:   []string{"internal/eval"},
		forbid: regexp.MustCompile(`\.Score(Many)?\(`),
		mutant: "func f(sc *model.Scorer) float32 { return sc.Score(nil, nil, nil) }",
		why:    "eval scores a side's candidates as one block, so a per-edge Score or ScoreMany call in eval's non-test code is a second ranking path that TestEvaluateMatchesReference does not hold to the block",
	},
	{
		name:   "one description per message: cursor",
		tests:  true,
		bench:  true,
		forbid: regexp.MustCompile(`\b(NewDec|wire\.Append(Int|Int64|Bool|Floats|String))\b`), // \b…\b: word matches, so json.NewDecoder is not one
		mutant: "d := wire.NewDec(b)",
		why:    "each flat wire message of dist and serve lists its fields once, in a walk over wire.Fields that is both its encoder and its parser (21 messages, bytes pinned by TestWireBytesMatchParent); the deleted decoder cursor and per-field appenders must not come back anywhere",
	},
	{
		name:   "one description per message: bodies",
		dirs:   []string{"internal/dist", "internal/serve"},
		forbid: regexp.MustCompile(`func \([^)]*\) (AppendWire|ParseWire)\(.*\{$`),
		mutant: "func (m *LeaseReq) AppendWire(b []byte) []byte {",
		why:    "AppendWire and ParseWire are one-liners over the message's fields walk; a hand-written multi-line body is a second description of the message that can drift from its parser",
	},
	{
		name:   "one lease table",
		dirs:   []string{"internal/partition"},
		forbid: regexp.MustCompile(`type Scheduler|NewScheduler|"sync"`),
		mutant: "type Scheduler struct{ mu sync.Mutex }",
		why:    "the lock server owns bucket leasing under its one mutex; internal/partition is pure functions of the grid, so no scheduler and no lock may come back into its non-test code",
	},
	{
		name:   "one GEMM leaf",
		tests:  true,
		bench:  true,
		asm:    true,
		forbid: regexp.MustCompile(`dotTileAVX2|prefetchRowsAVX2`),
		mutant: "TEXT ·dotTileAVX2(SB), NOSPLIT, $0-64",
		why:    "dotStripAVX2 scores a whole 4-row strip of every GEMM (training, eval and both serve scans) in one call, and its first strip prefetches listed rows a fixed distance ahead; the per-tile leaf and the up-front row prefetch it replaced must not come back in Go or assembly",
	},
	{
		name:   "one backward walk",
		dirs:   []string{"internal/model", "internal/vec"},
		forbid: regexp.MustCompile(`TransposeInto|\bgT\b`),
		mutant: "ws.g.TransposeInto(&ws.gT, cu)",
		why:    "a score block's Gᵀ·A scatters the loss's gradient rows where they lie (vec.AddRowsSparseT), bitwise the gather over the transpose it replaced; the per-chunk transpose (a counting sort that did no arithmetic, 13 % of kg_mem's worker CPU) and the transposed block it filled must not come back",
	},
	{
		name:   "one selection emit",
		dirs:   []string{"internal/vec"},
		forbid: regexp.MustCompile(`maskBits|bits\.TrailingZeros|MaskAVX2`),
		mutant: "type maskBits [16]byte",
		why:    "the hinge row and SelectGE store each 8-lane step's selected positions left-packed (a 256-entry table, a popcount) straight into the row or the list; the bitmask leaves, the mask block type and the Go walk of its set bits they replaced (maskBits.walk alone 0.47 s of kg_mem's 10.66 s worker CPU) must not come back in vec's Go or assembly",
	},
	{
		name:   "one row update",
		dirs:   []string{"internal/train"},
		forbid: regexp.MustCompile(`\.acc\(|\) acc\(|Update\([a-z.]*row\(`),
		mutant: "t.rowOpt.Update(ref.row(id), g, ref.acc(id))",
		why:    "the trainer hands the row optimizer a whole gradient block per call (one vec.AdagradRows leaf, bitwise the per-row Dot/Axpy chain, ~1.7x faster per row at kg_mem's 50 rows of a 6000 x 64 shard); a per-row Update loop and the per-row accumulator accessor it needed must not come back into train's non-test code",
	},
	{
		name:   "one k-means scorer",
		dirs:   []string{"internal/serve"},
		forbid: regexp.MustCompile(`nearestCentroid|SquaredDistance\(`),
		mutant: "func nearestCentroid(row []float32, cents [][]float32) int { return 0 }",
		why:    "BuildIVF assigns every 256-row block of a partition to its centroids with one SquaredL2Comparator.CrossScoresRows GEMM, every Lloyd pass and the final assignment; the per-(row, centroid) scalar distance loop it replaced cost serve_topk 45 % more setup_s",
	},
	{
		name:   "one generative score",
		dirs:   []string{"internal/datagen"},
		forbid: regexp.MustCompile(`truth\.Score\(`),
		mutant: "s := truth.Score(src, rel, dst)",
		why:    "the knowledge generator scores candidates through KGTruth's query and block scorer, once per attempt (one kg_mem generation ~0.4 s, ~1.5 s per candidate); the per-candidate truth.Score call must not come back into datagen's non-test code",
	},
	{
		name:   "one bucketing pass",
		dirs:   []string{"internal/graph"},
		forbid: regexp.MustCompile(`sort\.(Sort|Stable|Slice)|bucketSorter`),
		mutant: "sort.Stable(bucketSorter{s, edges})",
		why:    "SortByBucket places every edge with one stable counting pass, so order within a bucket is the input order and set-up is linear in the edges (social_ooc's 176 403 edges into 16 x 16: ~5-7 ms, ~30 ms with the comparison sort)",
	},
	{
		name:   "one chunk queue",
		dirs:   []string{"internal/train"},
		forbid: regexp.MustCompile(`byRel|perm\[wlo`),
		mutant: "for _, e := range perm[wlo:whi] {",
		why:    "a bucket's workers claim chunks from one queue built by one counting pass, one chunk ahead; the per-worker relation grouping and contiguous split it replaced ran kg_mem 11.8 %, social_ooc 18.8 % and social_dist 19.1 % slower",
	},
	{
		name:   "one score block per chunk",
		dirs:   []string{"internal/model"},
		forbid: regexp.MustCompile(`copy\(q\.Data, in\.Dst\.Data\)|scoreSide\(|Axpy\(1, gcand\.Data\[:c\*d\], g\.Dst\.Data\)`),
		mutant: "s.scoreSide(in, false)",
		why:    "ScoreChunk transforms a chunk's sources once and scores the positives' C x C block and pair scores once for both corruption sides, reading each side's gathered rows in place (kg_mem throughput_per_s +7 %); the per-side helper, the second copy of the destinations and the zero-then-Axpy of the candidate gradients must not come back",
	},
	{
		name:   "one training mode",
		dirs:   []string{"internal/train"},
		forbid: regexp.MustCompile(`HogwildOff|rowStripe|stripes`),
		mutant: "HogwildOff bool",
		why:    "a bucket's workers run HOGWILD and go test -race checks that path; the striped-lock mode, its Config knob and its row stripes ran in no workload, so none may come back into train's non-test code",
	},
	{
		name:   "one budget currency: pricing",
		forbid: regexp.MustCompile(`ProjectedShardBytesCodec|payloadBytes`),
		mutant: "func (l Layout) payloadBytes() int64 { return l.Size() - l.HeaderBytes() }",
		why:    "the cache holds every shard decoded fp32, so admission, eviction, the prefetch depth and the buffer slots price a shard at ProjectedShardBytes and Shard.Bytes; priced at its file codec, an int8 run held ~3.8x the budget it reported (103 MB peak RSS against fp32's 84 at one mem_budget)",
	},
	{
		name:   "one budget currency: train",
		dirs:   []string{"internal/train"},
		forbid: regexp.MustCompile(`SetCodec`),
		mutant: "if c, ok := store.(interface{ SetCodec(storage.Codec) }); ok { c.SetCodec(codec) }",
		why:    "training has no codec knob: at one mem_budget, priced in the bytes it holds, int8 trained social_ooc at 0.59x fp32's throughput_per_s (0 of 5 pairs) with quality in band, so the trainer never selects a store's file encoding",
	},
	{
		name:   "one relation file",
		allow:  "internal/storage/storage.go",
		forbid: regexp.MustCompile(`"relations\.pbg"|Rel[B]lock|ReadRelations\(|WriteRelations\(`),
		mutant: `rs, err := storage.ReadRelations(dir + "/relations.pbg")`,
		why:    "a checkpoint's relation parameters are written by storage.WriteRelationParams (Model.Checkpoint, Cluster.Checkpoint) and read through storage.ReadRelationParams (serve, pbg eval, dist resume), the one place that holds which blocks a checkpoint must have; the three restated rules it replaced let a reciprocal cluster refuse its own checkpoint (16 parameters counted as 8) and left a cluster's cut unservable",
	},
	{
		name:   "one cut",
		allow:  "internal/dist/checkpoint.go",
		forbid: regexp.MustCompile(`WriteManifest|ReadManifest|WithRestoredEpoch|ResumeEpoch|EpochBase`),
		mutant: "m, ok, err := dist.ReadManifest(rd.dir, nSrc, nDst)",
		why:    "a distributed checkpoint is written by one dist.Cuts.Write (snapshot, partition-server flush, relations.pbg, manifest last) and restored by Cuts.NewLockServer and Cuts.NewParamServer, for dist.Cluster and pbg node alike, and a node joins at the epoch the lock server reports; pbg node's own manifest loop wrote no relation blocks and flushed no partition server, so its manifest could name buckets whose shards were not on disk and its runs over parameterised operators could not be served, evaluated or resumed",
	},
}

// TestGuards walks the module once and reports every guard's forbidden
// lines, then runs each guard over a mutation fixture: a tree holding the
// guard's mutant line in a file of its scope and in files just outside it —
// a _test.go file, benchmark/, lint's testdata, another package, an
// assembly file, a non-Go file, this file and the allowed file — and the
// guard must report exactly the files its scope covers.
func TestGuards(t *testing.T) {
	hits, err := guardHits("../..", guards)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range guards {
		t.Run(g.name, func(t *testing.T) {
			for _, h := range hits[i] {
				t.Errorf("%s: forbidden by %q (%s)", h, g.name, g.why)
			}
			type file struct {
				path string
				in   bool // inside the guard's scope
			}
			whole := len(g.dirs) == 0
			fixture := []file{
				{guardTable, false},
				{"internal/lint/testdata/src/x/mutant.go", whole},
				{"internal/other/mutant.go", whole},
				{"benchmark/mutant.go", g.bench},
				{"benchmark/mutant.s", g.bench && g.asm},
			}
			if g.allow != "" {
				fixture = append(fixture, file{g.allow, false})
			}
			pkgs := g.dirs
			if whole {
				pkgs = []string{"internal/serve"}
			}
			for _, dir := range pkgs {
				fixture = append(fixture,
					file{dir + "/mutant.go", true},
					file{dir + "/testdata/mutant.go", true},
					file{dir + "/mutant_test.go", g.tests},
					file{dir + "/mutant.s", g.asm || !whole},
					file{dir + "/README.md", !whole})
			}
			root := t.TempDir()
			var want []string
			for _, f := range fixture {
				path := filepath.Join(root, f.path)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte("package x\n\n"+g.mutant+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				if f.in {
					want = append(want, f.path+":3")
				}
			}
			got, err := guardHits(root, []guard{g})
			if err != nil {
				t.Fatal(err)
			}
			slices.Sort(want)
			slices.Sort(got[0])
			if !slices.Equal(got[0], want) {
				t.Errorf("mutation fixture: guard reported %v, want %v", got[0], want)
			}
		})
	}
}

// guardHits walks root once and lists, for each guard, every line of a file
// in its scope that matches its forbid, as path:line under root. A guard
// reads a file's lines only when the file holds one of its needles: matching
// every line with every regexp made the walk ~0.7 s, the check first ~0.1 s.
func guardHits(root string, gs []guard) ([][]string, error) {
	hits := make([][]string, len(gs))
	need := make([][]string, len(gs))
	for i, g := range gs {
		re, err := syntax.Parse(g.forbid.String(), syntax.Perl)
		if err != nil {
			return nil, err
		}
		need[i] = needles(re)
	}
	var scoped []int
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		scoped = scoped[:0]
		for i, g := range gs {
			if inScope(g, rel) {
				scoped = append(scoped, i)
			}
		}
		if len(scoped) == 0 {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil || bytes.IndexByte(b, 0) >= 0 {
			return err
		}
		text := string(b)
		scoped = slices.DeleteFunc(scoped, func(i int) bool {
			return need[i] != nil && !slices.ContainsFunc(need[i], func(n string) bool { return strings.Contains(text, n) })
		})
		if len(scoped) == 0 {
			return nil
		}
		for n, line := range strings.Split(text, "\n") {
			for _, i := range scoped {
				if gs[i].forbid.MatchString(line) {
					hits[i] = append(hits[i], fmt.Sprintf("%s:%d", rel, n+1))
				}
			}
		}
		return nil
	})
	return hits, err
}

// needles returns strings one of which every match of re holds, or nil when
// it knows none.
func needles(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}
		}
	case syntax.OpCapture, syntax.OpPlus:
		return needles(re.Sub[0])
	case syntax.OpAlternate:
		var all []string
		for _, sub := range re.Sub {
			n := needles(sub)
			if n == nil {
				return nil
			}
			all = append(all, n...)
		}
		return all
	case syntax.OpConcat:
		var best []string
		shortest := func(ns []string) int {
			return len(slices.MinFunc(ns, func(a, b string) int { return len(a) - len(b) }))
		}
		for _, sub := range re.Sub {
			if n := needles(sub); n != nil && (best == nil || shortest(n) > shortest(best)) {
				best = n
			}
		}
		return best
	}
	return nil
}

// inScope reports whether guard g reads the file at slash path rel.
func inScope(g guard, rel string) bool {
	if rel == guardTable || rel == g.allow || !g.tests && strings.HasSuffix(rel, "_test.go") {
		return false
	}
	if len(g.dirs) > 0 {
		return slices.ContainsFunc(g.dirs, func(dir string) bool { return strings.HasPrefix(rel, dir+"/") })
	}
	if !g.bench && strings.HasPrefix(rel, "benchmark/") {
		return false
	}
	return strings.HasSuffix(rel, ".go") || g.asm && strings.HasSuffix(rel, ".s")
}
