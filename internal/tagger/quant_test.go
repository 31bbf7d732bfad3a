package tagger

import (
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"saccs/internal/nn"
)

// trainedQuantModel trains one small tagger for the quantized-decode tests.
func trainedQuantModel(t *testing.T) (*Model, [][]string) {
	t.Helper()
	d := smallDataset(t)
	enc := testEncoder(t, d)
	m := New(enc, fastCfg())
	m.Train(d.Train[:capN(len(d.Train), 30)])
	seqs := make([][]string, 0, 6)
	for _, ex := range d.Test[:capN(len(d.Test), 6)] {
		seqs = append(seqs, ex.Tokens)
	}
	return m, seqs
}

// TestPredictQuantAllocsRegression pins the allocation count of a warm
// quantized decode: quantize-at-load means the frozen int8/f32 weight copies
// are built once per generation, so the steady state allocates only the
// returned label slice — the same budget the float64 path holds.
func TestPredictQuantAllocsRegression(t *testing.T) {
	m, seqs := trainedQuantModel(t)
	tokens := seqs[0]
	for i := 0; i < 3; i++ {
		m.PredictAt(tokens, nn.Mixed) // warm pooled arenas + frozen weights
	}
	allocs := testing.AllocsPerRun(100, func() { m.PredictAt(tokens, nn.Mixed) })
	if limit := warmDecodeAllocs(); allocs > limit {
		t.Fatalf("warm PredictAt(mixed) allocates %v times per call, want <= %v", allocs, limit)
	}
}

// TestQuantWeightsFollowRetrain verifies quantize-at-load regenerates the
// frozen inference weights when the generation bumps: after further
// training moves the float64 weights, the quantized emissions must track
// the NEW float64 emissions closely — a stale frozen copy from the previous
// generation would diverge by the training step's full weight delta, orders
// of magnitude beyond quantization noise.
func TestQuantWeightsFollowRetrain(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	m := New(enc, fastCfg())
	m.Train(d.Train[:capN(len(d.Train), 20)])
	tokens := d.Test[0].Tokens

	bound := func() (float64, float64) {
		ef := m.EmissionsAt(tokens, nn.Float64)
		eq := m.EmissionsAt(tokens, nn.Mixed)
		var maxErr, maxAbs float64
		for i, f := range ef.Data {
			if a := math.Abs(f); a > maxAbs {
				maxAbs = a
			}
			if dd := math.Abs(eq.Data[i] - f); dd > maxErr {
				maxErr = dd
			}
		}
		return maxErr, maxAbs
	}
	m.PredictAt(tokens, nn.Mixed) // freeze quantized weights for this generation
	if err, scale := bound(); err > 0.05*scale {
		t.Fatalf("pre-retrain quantized emissions off by %v (scale %v)", err, scale)
	}
	g0 := m.Generation()
	m.Train(d.Train[:capN(len(d.Train), 20)])
	if m.Generation() == g0 {
		t.Fatal("Train did not bump the generation")
	}
	// The frozen copies must now be rebuilt from the post-train weights.
	if err, scale := bound(); err > 0.05*scale {
		t.Fatalf("post-retrain quantized emissions off by %v (scale %v) — stale frozen weights?", err, scale)
	}
}

// TestReferenceViewPinsFloat64 verifies the view index builds extract
// through: on a model configured to serve at mixed, the view decodes on the
// float64 reference path and reports the model's generation.
func TestReferenceViewPinsFloat64(t *testing.T) {
	m, seqs := trainedQuantModel(t)
	m.cfg.Precision = nn.Mixed
	v := ReferenceView{M: m}
	if v.Generation() != m.Generation() {
		t.Fatal("ReferenceView reports a different generation")
	}
	for i, toks := range seqs {
		if !slices.Equal(v.Predict(toks), m.PredictAt(toks, nn.Float64)) {
			t.Fatalf("seq %d: ReferenceView.Predict != PredictAt(Float64)", i)
		}
	}
}

// TestQuantEmissionsPinned pins the reduced-precision forward to emissions
// recorded at aba43f5, before Q/K/V were fused, quantizations shared, the
// attention heads packed and the row stages vectorised: none of that is
// allowed to move a float32 operation or its order, so every emission of the
// seeded production-size model must still be the recorded bits (FNV-64a over
// the little-endian float32 patterns, row-major) — at one token, all-OOV,
// the 19-token bench sentence and a 60-token sentence truncated to MaxLen.
func TestQuantEmissionsPinned(t *testing.T) {
	m, bench := benchModel()
	vocab := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff", "the", "is", "friendly"}
	long := make([]string, 60)
	for i := range long {
		long[i] = vocab[(i*7)%len(vocab)]
	}
	sentences := [][]string{{"food"}, {"zzz", "qqq", "xxx"}, bench, long}
	pinned := map[nn.Precision][]uint64{
		nn.Mixed: {0x13469a8f39981ba3, 0xbfe165f7a694627b, 0x57c2ead43f70fcf6, 0xfde498ff7070445b},
	}
	for p, want := range pinned {
		for i, s := range sentences {
			h := fnv.New64a()
			for _, v := range m.EmissionsAt(s, p).Data {
				b := math.Float32bits(float32(v))
				h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
			}
			if got := h.Sum64(); got != want[i] {
				t.Errorf("%v sentence %d: emissions hash %#016x, recorded %#016x", p, i, got, want[i])
			}
		}
	}
}
