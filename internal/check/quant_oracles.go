package check

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"saccs/internal/bert"
	"saccs/internal/corpus"
	"saccs/internal/datasets"
	"saccs/internal/lexicon"
	"saccs/internal/nn"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
)

// Quantized-inference drift oracle: the mixed decode path trades precision
// for speed, and this check makes the trade's contract falsifiable — on a
// trained model the quantized label sequences must agree with the
// float64 decode exactly on the five pinned golden utterances, near-exactly
// token-wise on a generated corpus, and the raw emission scores must stay
// within a small absolute envelope of the float64 emissions. An untrained
// model would not do: its Viterbi margins are noise-level, so any rounding
// flips labels; training on the fixed example set below gives the margins
// the production pipeline has.

// quantGoldenUtterances are the five golden utterances pinned by the root
// snapshot tests (saccs_golden_test.go) — the drift contract is strongest
// exactly where the public fixtures are.
var quantGoldenUtterances = []string{
	"I want an Italian restaurant in Montreal with delicious food",
	"somewhere with nice staff and a romantic ambiance",
	"a quiet atmosphere and quick service please",
	"fair prices, fresh ingredients and generous portions",
	"a place that serves tasty meals",
}

// quantExamples draws a deterministic labeled training set from the real
// corpus generator over the same restaurants domain the check generator's
// utterances use — review prose plus every seventh sentence a conversational
// utterance, mirroring datasets.build. Training on the production
// distribution (including negation and intensifier patterns) is what gives
// the tiny model real Viterbi margins on generated corpora.
func quantExamples(seed int64, n int) []datasets.Example {
	g := corpus.NewGenerator(lexicon.Restaurants(), seed, corpus.Options{})
	out := make([]datasets.Example, 0, n)
	for i := 0; i < n; i++ {
		var s corpus.Sentence
		if i%7 == 6 {
			s = g.RandomUtterance(3)
		} else {
			s = g.Sentence()
		}
		out = append(out, datasets.Example{Tokens: s.Tokens, Labels: s.Labels, Pairs: s.Pairs})
	}
	return out
}

// quantModelSeed fixes the drift oracle's model: the trained tagger is a
// deterministic fixture (weights, vocabulary, and therefore margins are
// identical on every run and every oracle seed), and only the measurement
// corpus varies with the seed. A per-seed model would make the oracle's
// verdict hostage to whichever random init happens to leave one golden token
// on a knife-edge margin — drift the quantized kernels did not cause.
const quantModelSeed = int64(1)

// quantModel caches the fixture: one deterministic build per process, shared
// by every oracle invocation (and both suite seeds).
var quantModel struct {
	mu   sync.Mutex
	seed int64
	m    *tagger.Model
}

// quantDriftModel builds and trains the small MiniBERT tagger the drift
// oracle measures. The vocabulary covers the training draw and the golden
// utterances; corpus tokens outside it map to [UNK], exactly as in serving.
func quantDriftModel() *tagger.Model {
	quantModel.mu.Lock()
	defer quantModel.mu.Unlock()
	if quantModel.m != nil && quantModel.seed == quantModelSeed {
		return quantModel.m
	}
	examples := quantExamples(quantModelSeed, 240)
	v := tokenize.NewVocab()
	for _, u := range quantGoldenUtterances {
		v.AddAll(tokenize.Words(u))
	}
	for _, ex := range examples {
		v.AddAll(ex.Tokens)
	}
	rng := rand.New(rand.NewSource(quantModelSeed))
	enc := bert.New(rng, bert.Config{Layers: 1, Heads: 2, Dim: 32, FFDim: 48, MaxLen: 12}, v)
	cfg := tagger.DefaultConfig()
	cfg.Hidden = 16
	cfg.Seed = quantModelSeed
	cfg.Epochs = 8
	m := tagger.New(enc, cfg)
	m.Train(examples)
	quantModel.seed, quantModel.m = quantModelSeed, m
	return m
}

// QuantDriftOracle checks the mixed decode's drift contract over a trained
// model:
//
//   - the five golden utterances decode to exactly the float64 labels;
//   - on nSentences generated utterances, raw token-level label agreement is
//     at least 99%, and every disagreement must be a tie-break: the float64
//     model's own CRF path score for the quantized labeling must be within
//     the drift envelope of its optimal path. A flip of any decisively-held
//     label fails — so agreement on decisive tokens is exactly 100%, a
//     stronger guarantee than any aggregate percentage over tokens the
//     reference itself holds by less than the quantization noise;
//   - the max-abs emission-score error against float64 stays under
//     emissionBound, expressed as a fraction of the largest float64
//     emission magnitude (the natural scale of the scores).
func QuantDriftOracle(seed int64, nSentences int, emissionBound float64) error {
	// The agreement corpus is in-distribution conversational utterances from
	// the real corpus generator (disjoint seed from the training draw): the
	// oracle measures quantization drift on inputs the model has margins on,
	// not out-of-vocabulary coin flips a float64 toy model loses too.
	cg := corpus.NewGenerator(lexicon.Restaurants(), seed, corpus.Options{})
	corp := make([][]string, nSentences)
	for i := range corp {
		corp[i] = cg.RandomUtterance(3).Tokens
	}
	golden := make([][]string, len(quantGoldenUtterances))
	for i, u := range quantGoldenUtterances {
		golden[i] = tokenize.Words(u)
	}
	m := quantDriftModel()

	// Golden utterances: exact agreement, no budget.
	for i, toks := range golden {
		want := m.PredictAt(toks, nn.Float64)
		got := m.PredictAt(toks, nn.Mixed)
		if err := diffLabels(fmt.Sprintf("golden utterance %d at mixed (seed %d)", i, seed), want, got); err != nil {
			return err
		}
	}

	// Generated corpus: emissions bounded, flips only on near-ties.
	var tokens, agree int
	maxErr, maxAbs := 0.0, 0.0
	type flip struct {
		sent int
		gap  float64
	}
	var flips []flip
	for si, toks := range corp {
		want := m.PredictAt(toks, nn.Float64)
		got := m.PredictAt(toks, nn.Mixed)
		mismatch := false
		for t := range want {
			tokens++
			if got[t] == want[t] {
				agree++
			} else {
				mismatch = true
			}
		}
		if mismatch {
			gap := m.PathScore(toks, want) - m.PathScore(toks, got)
			flips = append(flips, flip{si, gap})
		}
		ef := m.EmissionsAt(toks, nn.Float64)
		eq := m.EmissionsAt(toks, nn.Mixed)
		for i, f := range ef.Data {
			if a := math.Abs(f); a > maxAbs {
				maxAbs = a
			}
			if d := math.Abs(eq.Data[i] - f); d > maxErr {
				maxErr = d
			}
		}
	}
	if maxErr > emissionBound*maxAbs {
		return fmt.Errorf("quant-drift oracle (seed %d): mixed max emission error %.5f over scale %.3f, want <= %.2f%% of scale",
			seed, maxErr, maxAbs, 100*emissionBound)
	}
	if ratio := float64(agree) / float64(tokens); ratio < 0.99 {
		return fmt.Errorf("quant-drift oracle (seed %d): mixed raw token agreement %.4f (%d/%d), want >= 0.99",
			seed, ratio, agree, tokens)
	}
	// Any flip of a path the float64 model decisively prefers is real
	// drift; the envelope scales with the emission error bound times the
	// sentence positions a perturbed emission can shift.
	gapBound := 4 * emissionBound * maxAbs
	for _, f := range flips {
		if f.gap > gapBound {
			return fmt.Errorf("quant-drift oracle (seed %d): mixed flipped sentence %d the float64 model prefers by %.4f (envelope %.4f): %v",
				seed, f.sent, f.gap, gapBound, corp[f.sent])
		}
	}
	return nil
}

// diffLabels reports the first index where two label sequences diverge.
func diffLabels(name string, want, got []tokenize.Label) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d labels vs %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s: label %d = %v, want %v", name, i, got[i], want[i])
		}
	}
	return nil
}
