package tagger

import (
	"math/rand"
	"strings"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/corpus"
	"saccs/internal/datasets"
	"saccs/internal/lexicon"
	"saccs/internal/tokenize"
)

// testEncoder builds a small untrained MiniBERT over the dataset vocabulary;
// frozen random contextual features are enough for the head to learn on.
func testEncoder(t *testing.T, d *datasets.Dataset) *bert.Model {
	t.Helper()
	v := buildVocab(d.Domain, d.Train, d.Test)
	cfg := bert.Config{Layers: 1, Heads: 2, Dim: 24, FFDim: 32, MaxLen: 40}
	return bert.New(rand.New(rand.NewSource(5)), cfg, v)
}

func smallDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	d := datasets.S4(datasets.Fast)
	if len(d.Train) > 60 {
		d.Train = d.Train[:60]
	}
	if len(d.Test) > 40 {
		d.Test = d.Test[:40]
	}
	return d
}

func capN(n, limit int) int {
	if n < limit {
		return n
	}
	return limit
}

func fastCfg() Config {
	cfg := DefaultConfig()
	cfg.Hidden = 16
	cfg.Epochs = 6
	return cfg
}

func TestTaggerLearns(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	m := New(enc, fastCfg())

	before := m.Evaluate(d.Test)
	loss := m.Train(d.Train)
	after := m.Evaluate(d.Test)
	if loss <= 0 {
		t.Fatalf("suspicious final loss %v", loss)
	}
	if after.F1 <= before.F1 {
		t.Fatalf("training did not improve F1: %v -> %v", before.F1, after.F1)
	}
	if after.F1 < 0.5 {
		t.Fatalf("tagger too weak after training: F1=%v", after.F1)
	}
}

func TestTaggerOutputsWellFormedIOB(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	m := New(enc, fastCfg())
	m.Train(d.Train[:capN(len(d.Train), 20)])
	for _, ex := range d.Test[:capN(len(d.Test), 10)] {
		pred := m.Predict(ex.Tokens)
		if len(pred) != len(ex.Tokens) {
			t.Fatalf("length mismatch: %d vs %d", len(pred), len(ex.Tokens))
		}
		prev := tokenize.O
		for i, l := range pred {
			if i == 0 && !tokenize.ValidStart(l) {
				t.Fatalf("invalid start %v (CRF constraints must forbid it)", l)
			}
			if i > 0 && !tokenize.ValidTransition(prev, l) {
				t.Fatalf("invalid transition %v->%v", prev, l)
			}
			prev = l
		}
	}
}

func TestAdversarialTrainingRuns(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	cfg := fastCfg()
	cfg.Adversarial = true
	cfg.Epsilon = 0.2
	m := New(enc, cfg)
	m.Train(d.Train)
	prf := m.Evaluate(d.Test[:capN(len(d.Test), 20)])
	if prf.F1 <= 0.2 {
		t.Fatalf("adversarial tagger failed to learn: F1=%v", prf.F1)
	}
}

func TestAdversarialMoreRobustToEmbeddingNoise(t *testing.T) {
	// The §4.3 claim: FGSM training hardens the model against input
	// perturbations. Compare F1 degradation when test embeddings are
	// perturbed... approximated here by injecting typos into test tokens
	// (OOV noise shifts embeddings).
	d := smallDataset(t)
	enc := testEncoder(t, d)

	clean := New(enc, fastCfg())
	clean.Train(d.Train)

	advCfg := fastCfg()
	advCfg.Adversarial = true
	advCfg.Epsilon = 0.2
	adv := New(enc, advCfg)
	adv.Train(d.Train)

	cleanF1 := clean.Evaluate(d.Test).F1
	advF1 := adv.Evaluate(d.Test).F1
	// Both must be functional; adversarial must not collapse the model.
	if advF1 < cleanF1*0.7 {
		t.Fatalf("adversarial training collapsed the model: %v vs %v", advF1, cleanF1)
	}
}

func TestLargeEpsilonHurts(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)

	small := fastCfg()
	small.Adversarial = true
	small.Epsilon = 0.1
	mSmall := New(enc, small)
	mSmall.Train(d.Train)

	huge := fastCfg()
	huge.Adversarial = true
	huge.Epsilon = 8 // absurd radius — adversarial examples are garbage
	mHuge := New(enc, huge)
	mHuge.Train(d.Train)

	f1Small := mSmall.Evaluate(d.Test).F1
	f1Huge := mHuge.Evaluate(d.Test).F1
	if f1Huge > f1Small {
		t.Fatalf("absurd ε should not beat small ε: %v vs %v", f1Huge, f1Small)
	}
}

func TestOpineDBBaselineLearns(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	cfg := fastCfg()
	cfg.Epochs = 10 // the linear head is cheap; give it room to move
	o := NewOpineDB(enc, cfg)
	before := o.Evaluate(d.Test)
	o.Train(d.Train)
	after := o.Evaluate(d.Test)
	if after.F1 <= before.F1 {
		t.Fatalf("OpineDB did not learn: %v -> %v", before.F1, after.F1)
	}
}

func TestPredictEmptyAndLong(t *testing.T) {
	d := smallDataset(t)
	enc := testEncoder(t, d)
	m := New(enc, fastCfg())
	if got := m.Predict(nil); len(got) != 0 {
		t.Fatalf("empty predict: %v", got)
	}
	long := make([]string, 100)
	for i := range long {
		long[i] = "food"
	}
	got := m.Predict(long)
	if len(got) != 100 {
		t.Fatalf("long predict length %d", len(got))
	}
	// Tokens beyond the encoder window default to O.
	for _, l := range got[40:] {
		if l != tokenize.O {
			t.Fatal("overflow tokens must be O")
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	d := smallDataset(t)
	train := d.Train[:capN(len(d.Train), 15)]
	encA := testEncoder(t, d)
	a := New(encA, fastCfg())
	lossA := a.Train(train)
	encB := testEncoder(t, d)
	b := New(encB, fastCfg())
	lossB := b.Train(train)
	if lossA != lossB {
		t.Fatalf("training must be deterministic: %v vs %v", lossA, lossB)
	}
}

// buildVocab constructs a vocabulary covering a domain's lexicon, the
// grammar's function words, the general MLM corpus, and every token observed
// in the given examples.
func buildVocab(domain *lexicon.Domain, examples ...[]datasets.Example) *tokenize.Vocab {
	v := tokenize.NewVocab()
	v.AddAll(corpus.FunctionWords())
	v.AddAll(corpus.GeneralVocabulary())
	for _, f := range domain.Features {
		for _, variant := range append(append(append([]string{}, f.AspectSyns...), f.PosOps...), f.NegOps...) {
			v.AddAll(strings.Fields(variant))
		}
	}
	for _, exs := range examples {
		for _, ex := range exs {
			v.AddAll(ex.Tokens)
		}
	}
	return v
}

func TestBuildVocabCoversDataset(t *testing.T) {
	d := datasets.S1(datasets.Fast)
	v := buildVocab(d.Domain, d.Train, d.Test)
	unk := v.ID(tokenize.UnkToken)
	for _, ex := range d.Train {
		for _, tok := range ex.Tokens {
			if v.ID(tok) == unk && tok != tokenize.UnkToken {
				t.Fatalf("token %q not covered by vocab", tok)
			}
		}
	}
	if v.ID("delicious") == unk || v.ID("the") == unk {
		t.Fatal("vocab missing lexicon/function words")
	}
}
