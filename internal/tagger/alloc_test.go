package tagger

import (
	"math/rand"
	"slices"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/race"
	"saccs/internal/tokenize"
)

// warmDecodeAllocs is the allocation budget of a warm decode: the returned
// label slice (measured 1) plus slack for a pooled arena lost to a GC cycle.
// Under the race detector sync.Pool drops a quarter of its Puts and every
// miss rebuilds an arena, so only the gross regression is pinned there.
func warmDecodeAllocs() float64 {
	if race.Enabled {
		return 16
	}
	return 2
}

// TestPredictAllocsRegression pins the allocation count of a warm Predict.
// The whole decode — MiniBERT forward, BiLSTM, projection, Viterbi — runs on
// one pooled arena, so the only steady-state allocation is the returned
// label slice. The previous implementation routed through the training
// Forward paths and paid hundreds of allocations (and hundreds of kilobytes)
// per sentence.
func TestPredictAllocsRegression(t *testing.T) {
	v := tokenize.NewVocab()
	v.AddAll([]string{"the", "food", "is", "delicious", "staff", "friendly", "and", "service", "slow", "."})
	enc := bert.New(rand.New(rand.NewSource(31)), bert.Config{Layers: 2, Heads: 4, Dim: 32, FFDim: 48, MaxLen: 40}, v)
	m := New(enc, DefaultConfig())
	tokens := []string{"the", "staff", "is", "friendly", "and", "the", "service", "is", "slow", "."}
	for i := 0; i < 3; i++ {
		m.Predict(tokens) // warm the pooled arenas
	}
	allocs := testing.AllocsPerRun(100, func() { m.Predict(tokens) })
	if limit := warmDecodeAllocs(); allocs > limit {
		t.Fatalf("warm Predict allocates %v times per call, want <= %v", allocs, limit)
	}
}

// TestPredictMatchesTrainingForward pins the float64 inference forward
// directly against the training pipeline (enc.EncodeTokens → bilstm.Forward →
// proj.ForwardSeq → crf.Decode): every emission bit for bit, hence the exact
// label path — the bit-identity contract behind the extraction cache, the
// index bytes and the golden snapshots. Lengths cover empty, one token, a
// ragged middle, a full MaxLen window and beyond it, on the vector kernels
// and with them forced off.
func TestPredictMatchesTrainingForward(t *testing.T) {
	words := []string{"the", "food", "is", "delicious", "staff", "friendly", "and", "service", "slow", "."}
	v := tokenize.NewVocab()
	v.AddAll(words)
	enc := bert.New(rand.New(rand.NewSource(32)), bert.Config{Layers: 1, Heads: 2, Dim: 16, FFDim: 24, MaxLen: 20}, v)
	m := New(enc, DefaultConfig())
	check := func(t *testing.T) {
		for _, n := range []int{0, 1, 7, enc.Cfg.MaxLen, enc.Cfg.MaxLen + 12} {
			tokens := make([]string, n)
			for i := range tokens {
				tokens[i] = words[(i*7+i/4)%len(words)]
			}
			hs, _ := m.bilstm.Forward(enc.EncodeTokens(tokens))
			emissions := m.proj.ForwardSeq(hs)
			got := m.EmissionsAt(tokens, nn.Float64)
			if len(got) != len(emissions) {
				t.Fatalf("n=%d: %d emission rows, training forward %d", n, len(got), len(emissions))
			}
			for i := range emissions {
				for j, w := range emissions[i] {
					if got[i][j] != w {
						t.Fatalf("n=%d: emission[%d][%d] = %v, want %v (bit-exact)", n, i, j, got[i][j], w)
					}
				}
			}
			want := make([]tokenize.Label, len(tokens))
			for i, l := range m.crf.Decode(emissions) {
				want[i] = tokenize.Label(l)
			}
			if labels := m.PredictAt(tokens, nn.Float64); !slices.Equal(labels, want) {
				t.Fatalf("n=%d: labels %v, training forward %v", n, labels, want)
			}
		}
	}
	t.Run("vector", check)
	t.Run("scalar", func(t *testing.T) {
		defer mat.ForceScalar()()
		check(t)
	})
}

// TestGenerationChangesOnTrain verifies the cache-keying contract: a model's
// generation is stable across Predicts, changes on every Train, and is
// never shared between two models.
func TestGenerationChangesOnTrain(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	m := New(enc, fastCfg())
	g0 := m.Generation()
	if m.Generation() != g0 {
		t.Fatal("generation changed without training")
	}
	m.Predict(d.Test[0].Tokens)
	if m.Generation() != g0 {
		t.Fatal("Predict changed the generation")
	}
	m.Train(d.Train[:capN(len(d.Train), 10)])
	g1 := m.Generation()
	if g1 == g0 {
		t.Fatal("Train did not change the generation")
	}
	other := New(enc, fastCfg())
	if other.Generation() == g1 || other.Generation() == g0 {
		t.Fatal("two models share a generation")
	}
	o := NewOpineDB(enc, fastCfg())
	og := o.Generation()
	o.Train(d.Train[:capN(len(d.Train), 5)])
	if o.Generation() == og {
		t.Fatal("OpineDB Train did not change the generation")
	}
}

// TestTrainStepAllocs pins the allocation count of one warm adversarial
// training step at the served tagger's shape (DefaultConfig, a 64-wide
// encoder) on a 12-token sentence: the BiLSTM caches and outputs, the
// projection and CRF gradients, dropout masks and the FGSM direction (in
// which the adversarial inputs are formed). The clean-gradient snapshot
// reuses the Train call's buffers, and the optimizer step and the gradient
// clip allocate nothing.
func TestTrainStepAllocs(t *testing.T) {
	words := []string{"the", "food", "is", "delicious", "and", "the", "staff", "is", "friendly", "but", "slow", "."}
	v := tokenize.NewVocab()
	v.AddAll(words)
	enc := bert.New(rand.New(rand.NewSource(33)), bert.DefaultConfig(), v)
	cfg := DefaultConfig()
	cfg.Adversarial, cfg.Epsilon = true, 0.2
	m := New(enc, cfg)
	m.drop.Train = true
	embeds := enc.EncodeTokens(words)
	gold := make([]int, len(words))
	for i := range gold {
		gold[i] = int(tokenize.O)
	}
	gold[3], gold[1] = int(tokenize.BOP), int(tokenize.BAS)
	opt := nn.NewAdam(cfg.LR)
	params := m.Params()
	clean := gradBuffers(params)
	for i := 0; i < 3; i++ {
		m.trainStep(opt, params, clean, embeds, gold, nil) // warm the scratch pool and Adam state
	}
	allocs := testing.AllocsPerRun(50, func() { m.trainStep(opt, params, clean, embeds, gold, nil) })
	limit := 70.0 // the count measured today: lower it when a change removes one
	if race.Enabled {
		limit *= 2 // sync.Pool drops a quarter of its Puts: pin only the gross regression
	}
	if allocs > limit {
		t.Fatalf("warm adversarial train step allocates %v times, want <= %v", allocs, limit)
	}
}
