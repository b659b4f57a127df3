package serve_test

import (
	"math"
	"testing"

	"pbg/internal/serve"
	"pbg/internal/storage"
)

// openServerAt opens a Server over dir with the fixture's model config.
func openServerAt(t *testing.T, f *Fixture, dir string) *serve.Server {
	t.Helper()
	s, err := serve.Open(dir, f.ServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestNativeQuantServesBitEqualToDecode pins how a natively quantized (v2)
// checkpoint is served: its shards are decoded to fp32 rows at open, so
// serving it must agree bit for bit with serving the same checkpoint
// re-encoded as fp32 (v1) from storage.ReadShard's decode, and Score must
// match the independent oracle (which decodes the same way) exactly.
func TestNativeQuantServesBitEqualToDecode(t *testing.T) {
	f := Shared(t, FixtureConfig{})
	const k = 10
	reqs := f.Requests(13, 30, k, true)

	for _, codec := range []storage.Codec{storage.CodecInt8, storage.CodecFP16} {
		t.Run(codec.String(), func(t *testing.T) {
			dir := f.CheckpointAs(t, codec)
			on := openServerAt(t, f, dir)
			quantized := *f
			quantized.Dir = dir
			off := openServerAt(t, f, quantized.CheckpointAs(t, storage.CodecFP32))

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

			// Pair scores go through CopyRow — bitwise the oracle's decode of
			// the same checkpoint.
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
func fixtureOracleAt(t *testing.T, f *Fixture, dir string) *Oracle {
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
	f := Shared(t, FixtureConfig{})
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
