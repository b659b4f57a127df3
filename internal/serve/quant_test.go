package serve_test

import (
	"math"
	"testing"

	"pbg/internal/serve"
	"pbg/internal/serve/servetest"
	"pbg/internal/storage"
)

// openServerAt opens a Server over dir with the fixture's model config.
func openServerAt(t *testing.T, f *servetest.Fixture, dir string) *serve.Server {
	t.Helper()
	s, err := serve.Open(dir, f.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestQuantSiblingScanRecall is the tentpole serving claim: an fp32
// checkpoint with int8/fp16 sibling copies serves top-K through the
// quantized scan + fp32 re-rank, and the answers stay within the pinned
// recall of the independent fp32 oracle.
func TestQuantSiblingScanRecall(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	o := f.NewOracle(t)
	const k = 10
	reqs := f.Requests(7, 40, k, true)

	for _, codec := range []storage.Codec{storage.CodecInt8, storage.CodecFP16} {
		t.Run(codec.String(), func(t *testing.T) {
			dir := f.QuantSiblings(t, codec)
			s := openServerAt(t, f, dir)

			st, err := s.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.QuantCodec != codec.String() || st.QuantShards == 0 || st.QuantBytes == 0 {
				t.Fatalf("stats do not report the quantized view: %+v", st)
			}

			res, err := s.TopK(reqs)
			if err != nil {
				t.Fatal(err)
			}
			var recall float64
			for i, r := range res {
				if r.Reranked == 0 {
					t.Fatalf("request %d: quantized scan did not re-rank (scanned %d)", i, r.Scanned)
				}
				if r.Reranked < k || r.Reranked > 3*k+1 {
					t.Fatalf("request %d: reranked %d rows, want within [K, ceil(3K)]", i, r.Reranked)
				}
				wantIDs, _ := o.TopK(reqs[i].Rel, reqs[i].SrcID, nil, k)
				recall += servetest.Recall(r.IDs, wantIDs)
			}
			recall /= float64(len(res))
			if recall < 0.95 {
				t.Fatalf("quant-scan+rerank recall@%d = %.3f vs fp32 oracle, want ≥ 0.95", k, recall)
			}

			// Re-ranked scores are computed from the fp32 rows, so every
			// returned score must be the oracle's score for that pair bit for
			// bit.
			for i, r := range res {
				all := o.AllScores(reqs[i].Rel, reqs[i].SrcID, nil)
				for j, id := range r.IDs {
					if r.Scores[j] != all[id] {
						t.Fatalf("request %d: re-ranked score %x for id %d, oracle %x", i, r.Scores[j], id, all[id])
					}
				}
			}
		})
	}
}

// TestNativeQuantServesBitEqualToDecode pins the no-rerank leg: a natively
// quantized (v2) checkpoint has no fp32 rows, so the quantized scan's
// dequantized scores ARE the decoded checkpoint's scores — serving it must
// agree bit for bit with serving the same checkpoint decoded to fp32 by
// storage.ReadShard, and Score must match the independent oracle (which
// decodes the same way) exactly.
func TestNativeQuantServesBitEqualToDecode(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	const k = 10
	reqs := f.Requests(13, 30, k, true)

	for _, codec := range []storage.Codec{storage.CodecInt8, storage.CodecFP16} {
		t.Run(codec.String(), func(t *testing.T) {
			dir := f.CheckpointAs(t, codec)
			on := openServerAt(t, f, dir)
			quantized := *f
			quantized.Dir = dir
			off := openServerAt(t, f, quantized.CheckpointAs(t, storage.CodecFP32))

			st, err := on.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if st.QuantCodec != codec.String() || st.QuantShards == 0 {
				t.Fatalf("native v2 checkpoint not served quantized: %+v", st)
			}
			stOff, err := off.Stats()
			if err != nil {
				t.Fatal(err)
			}
			// The decoded copy holds ~4 bytes/dim resident vs the codec's 1–2 —
			// the serving-residency half of the ≥2× reduction claim.
			if codec == storage.CodecInt8 && st.MappedBytes*2 > stOff.MappedBytes {
				t.Fatalf("int8 serving residency %d not ≥2x below decoded %d", st.MappedBytes, stOff.MappedBytes)
			}

			rOn, err := on.TopK(reqs)
			if err != nil {
				t.Fatal(err)
			}
			rOff, err := off.TopK(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range rOn {
				if rOn[i].Reranked != 0 {
					t.Fatalf("request %d: re-rank claimed without fp32 rows", i)
				}
				if len(rOn[i].IDs) != len(rOff[i].IDs) {
					t.Fatalf("request %d: result sizes differ", i)
				}
				for j := range rOn[i].IDs {
					if rOn[i].IDs[j] != rOff[i].IDs[j] || rOn[i].Scores[j] != rOff[i].Scores[j] {
						t.Fatalf("request %d result %d: quant (%d, %x) vs decoded (%d, %x)",
							i, j, rOn[i].IDs[j], rOn[i].Scores[j], rOff[i].IDs[j], rOff[i].Scores[j])
					}
				}
			}

			// Pair scores go through CopyRow (dequantized) — bitwise the
			// oracle's decode of the same checkpoint.
			oracle := fixtureOracleAt(t, f, dir)
			pairs := []serve.ScoreRequest{{Rel: 0, Src: 1, Dst: 2}, {Rel: 0, Src: 5, Dst: 9}}
			got, err := on.Score(pairs)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pairs {
				if want := oracle.Score(p.Rel, p.Src, p.Dst); got[i] != want {
					t.Fatalf("pair %d: served score %x, oracle %x", i, got[i], want)
				}
			}
		})
	}
}

// fixtureOracleAt loads an oracle over an alternate checkpoint directory of
// the same fixture geometry.
func fixtureOracleAt(t *testing.T, f *servetest.Fixture, dir string) *servetest.Oracle {
	t.Helper()
	alt := *f
	alt.Dir = dir
	return alt.NewOracle(t)
}

// TestCodecEvalParityMatrix is the offline half of the parity matrix:
// re-encode the trained checkpoint through every codec and pin how far MRR
// may move against the fp32 baseline. fp32 re-encoding is lossless; fp16
// carries ~3 decimal digits (≤ 1e-3 MRR drift on these fixtures); int8's
// per-row scaling is documented to hold MRR within 0.05.
func TestCodecEvalParityMatrix(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	base := f.EvalMRR(t, f.Dir)
	// Unfiltered all-candidates eval on the tiny social fixture tops out
	// near 0.09 (each source's ~8 true neighbours outrank the held-out edge);
	// the gate only guards against a degenerate constant-score baseline
	// (which would sit at 2/(K+2) ≈ 0.005 here).
	if base < 0.05 {
		t.Fatalf("fixture MRR %.3f too weak to pin codec drift against", base)
	}
	bounds := map[storage.Codec]float64{
		storage.CodecFP32: 0,
		storage.CodecFP16: 1e-3,
		storage.CodecInt8: 0.05,
	}
	for _, codec := range storage.Codecs() {
		t.Run(codec.String(), func(t *testing.T) {
			dir := f.CheckpointAs(t, codec)
			mrr := f.EvalMRR(t, dir)
			if delta := math.Abs(mrr - base); delta > bounds[codec] {
				t.Fatalf("codec %v MRR %.4f drifted %.4f from fp32 %.4f, bound %.4f",
					codec, mrr, delta, base, bounds[codec])
			}
		})
	}
}

// TestBuildQuantHotSwap drives the online path: a server opened over a
// plain fp32 checkpoint starts with no quantized view, BuildQuant writes
// int8 siblings and hot-swaps, and subsequent requests run the quantized
// scan with fp32 re-rank.
func TestBuildQuantHotSwap(t *testing.T) {
	f := servetest.Shared(t, servetest.FixtureConfig{})
	// BuildQuant writes into the served directory — use a private fp32 copy,
	// not the shared fixture.
	fp32Dir := f.CheckpointAs(t, storage.CodecFP32)

	s := openServerAt(t, f, fp32Dir)
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantShards != 0 {
		t.Fatalf("fresh fp32 checkpoint reports quantized shards: %+v", st)
	}
	if err := s.BuildQuant(storage.CodecInt8); err != nil {
		t.Fatal(err)
	}
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.QuantCodec != "int8" || st.QuantShards == 0 {
		t.Fatalf("BuildQuant did not install a quantized view: %+v", st)
	}
	res, err := s.TopK(f.Requests(3, 5, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Reranked == 0 {
			t.Fatalf("request %d did not take the quantized-scan path after BuildQuant", i)
		}
	}
}
