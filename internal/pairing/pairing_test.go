package pairing

import (
	"math/rand"
	"slices"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/datasets"
	"saccs/internal/lexicon"
	"saccs/internal/metrics"
	"saccs/internal/nn"
	"saccs/internal/parse"
	"saccs/internal/snorkel"
	"saccs/internal/tokenize"
)

// paperSentence builds the §5.1 example: "the staff is friendly, helpful and
// professional. the decor is beautiful." with gold spans.
func paperSentence() (tokens []string, aspects, opinions []tokenize.Span) {
	tokens = []string{"the", "staff", "is", "friendly", ",", "helpful", "and",
		"professional", ".", "the", "decor", "is", "beautiful", "."}
	aspects = []tokenize.Span{
		{Kind: tokenize.AspectSpan, Start: 1, End: 2},   // staff
		{Kind: tokenize.AspectSpan, Start: 10, End: 11}, // decor
	}
	opinions = []tokenize.Span{
		{Kind: tokenize.OpinionSpan, Start: 3, End: 4},   // friendly
		{Kind: tokenize.OpinionSpan, Start: 5, End: 6},   // helpful
		{Kind: tokenize.OpinionSpan, Start: 7, End: 8},   // professional
		{Kind: tokenize.OpinionSpan, Start: 12, End: 13}, // beautiful
	}
	return
}

func restLex() map[string]uint8 { return nil }

var _ = restLex

func TestWordDistanceFailsOnPaperExample(t *testing.T) {
	// §5: word distance wrongly pairs professional with decor.
	tokens, aspects, opinions := paperSentence()
	wd := WordDistance{FromOpinions: true}
	pairs := wd.Pairs(tokens, aspects, opinions)
	foundWrong := false
	for _, p := range pairs {
		if p.Opinion.Start == 7 && p.Aspect.Start == 10 {
			foundWrong = true // professional -> decor (the documented failure)
		}
	}
	if !foundWrong {
		t.Fatalf("word distance should exhibit the paper's failure mode: %v", pairs)
	}
}

func TestTreeHeuristicFixesPaperExample(t *testing.T) {
	tokens, aspects, opinions := paperSentence()
	lex := parse.DomainLexicon(lexicon.Restaurants())
	tr := Tree{Lex: lex, FromOpinions: true}
	pairs := tr.Pairs(tokens, aspects, opinions)
	for _, p := range pairs {
		if p.Opinion.Start == 7 && p.Aspect.Start != 1 {
			t.Fatalf("tree heuristic paired professional with %d, want staff: %v", p.Aspect.Start, pairs)
		}
		if p.Opinion.Start == 12 && p.Aspect.Start != 10 {
			t.Fatalf("beautiful must pair with decor: %v", pairs)
		}
	}
}

func TestTreeBothDirections(t *testing.T) {
	// From aspects: each aspect gets exactly one opinion. From opinions:
	// every opinion gets an aspect, so staff collects all three adjectives.
	tokens, aspects, opinions := paperSentence()
	lex := parse.DomainLexicon(lexicon.Restaurants())
	fromAs := Tree{Lex: lex}.Pairs(tokens, aspects, opinions)
	if len(fromAs) != 2 {
		t.Fatalf("aspects direction must produce one pair per aspect: %v", fromAs)
	}
	fromOp := Tree{Lex: lex, FromOpinions: true}.Pairs(tokens, aspects, opinions)
	if len(fromOp) != 4 {
		t.Fatalf("opinions direction must produce one pair per opinion: %v", fromOp)
	}
}

func TestHeuristicsEmptyInputs(t *testing.T) {
	lex := parse.DomainLexicon(lexicon.Restaurants())
	for _, h := range []Heuristic{WordDistance{}, Tree{Lex: lex}} {
		if got := h.Pairs([]string{"hello"}, nil, nil); got != nil {
			t.Fatalf("%s: empty spans must produce nil", h.Name())
		}
	}
}

func trainedEncoder(t *testing.T, train []datasets.PairingExample) *bert.Model {
	t.Helper()
	v := tokenize.NewVocab()
	for _, ex := range train {
		v.AddAll(ex.Tokens)
	}
	cfg := bert.Config{Layers: 2, Heads: 4, Dim: 32, FFDim: 48, MaxLen: 40}
	m := bert.New(rand.New(rand.NewSource(9)), cfg, v)
	// Light MLM so attention heads carry usable structure.
	var corpus [][]string
	for i, ex := range train {
		if i >= 80 {
			break
		}
		corpus = append(corpus, ex.Tokens)
	}
	m.TrainMLM(rand.New(rand.NewSource(10)), corpus, bert.MLMConfig{
		MaskProb: 0.15, LR: 1e-3, Epochs: 2, ClipNorm: 5,
	})
	return m
}

func pairingData(t *testing.T) (train, test []datasets.PairingExample) {
	t.Helper()
	sents, test := datasets.PairingBenchmark(datasets.Fast)
	for _, s := range sents {
		train = append(train, datasets.EnumeratePairs(s)...)
	}
	return train, test
}

func TestAttentionHeuristicBeatsChance(t *testing.T) {
	train, test := pairingData(t)
	enc := trainedEncoder(t, train)
	heads := SelectHeads(Candidates(enc, nil, train[:100]), datasets.Labels(train[:100]), 1)
	if len(heads) != 1 {
		t.Fatalf("SelectHeads returned %d", len(heads))
	}
	if heads[0].Accuracy <= 0.55 {
		t.Fatalf("best head should beat chance on the dev slice: %v", heads[0].Accuracy)
	}
	lf := Attention{Layer: heads[0].Layer, Head: heads[0].Head}.LF()
	var bin metrics.Binary
	for i, c := range Candidates(enc, nil, test) {
		bin.Observe(lf.Apply(c) == snorkel.Positive, test[i].Label)
	}
	// The test set is deliberately hardened against surface heuristics
	// (distance-adversarial sampling), so a raw head's balanced accuracy sits
	// near chance at fast scale; it must at least remain a usable weak voter.
	if bin.Accuracy() < 0.40 {
		t.Fatalf("best attention head unusable: %v", bin.Accuracy())
	}
}

func TestSelectHeadsOrdering(t *testing.T) {
	train, _ := pairingData(t)
	enc := trainedEncoder(t, train)
	scores := SelectHeads(Candidates(enc, nil, train[:60]), datasets.Labels(train[:60]), 5)
	if len(scores) != 5 {
		t.Fatalf("want 5 heads, got %d", len(scores))
	}
	for i := 1; i < len(scores); i++ {
		if scores[i].Accuracy > scores[i-1].Accuracy {
			t.Fatal("heads must be sorted by accuracy descending")
		}
	}
}

func TestStandardLFsShape(t *testing.T) {
	train, _ := pairingData(t)
	enc := trainedEncoder(t, train)
	heads := SelectHeads(Candidates(enc, nil, train[:60]), datasets.Labels(train[:60]), 5)
	names := []string{"lf_bert_7:10", "lf_bert_3:10", "lf_bert_3:8", "lf_bert_4:6", "lf_bert_8:9"}
	lfs := StandardLFs(parse.DomainLexicon(lexicon.Hotels()), heads, names)
	if len(lfs) != 7 {
		t.Fatalf("the paper uses seven labeling functions, got %d", len(lfs))
	}
	if lfs[0].Name != "lf_tree_as" || lfs[1].Name != "lf_tree_op" {
		t.Fatalf("tree LF names: %s %s", lfs[0].Name, lfs[1].Name)
	}
	if lfs[2].Name != "lf_bert_7:10" {
		t.Fatalf("display name not applied: %s", lfs[2].Name)
	}
}

func TestTreeLFsHighPrecision(t *testing.T) {
	// §6.4: all labeling functions enjoy high precision (low recall is fine).
	_, test := pairingData(t)
	lex := parse.DomainLexicon(lexicon.Hotels())
	for _, h := range []Heuristic{Tree{Lex: lex}, Tree{Lex: lex, FromOpinions: true}} {
		lf := LFFromHeuristic(h)
		var bin metrics.Binary
		for _, ex := range test {
			c := Candidate{Sent: &Sentence{Tokens: ex.Tokens}, Aspects: ex.Aspects, Opinions: ex.Opinions, Aspect: ex.Aspect, Opinion: ex.Opinion}
			bin.Observe(lf.Apply(c) == snorkel.Positive, ex.Label)
		}
		if bin.Precision() < 0.7 {
			t.Fatalf("%s precision too low: %v", h.Name(), bin.Precision())
		}
	}
}

func TestDiscriminativePipelineEndToEnd(t *testing.T) {
	// The full Fig. 6 pipeline: LFs -> majority-vote labels -> classifier,
	// evaluated against the gold test set. Must beat always-negative.
	train, test := pairingData(t)
	enc := trainedEncoder(t, train)
	cands := Candidates(enc, nil, train)
	heads := SelectHeads(cands[:150], datasets.Labels(train[:150]), 5)
	lfs := StandardLFs(parse.DomainLexicon(lexicon.Hotels()), heads, nil)

	votes := snorkel.ApplyAll(lfs, cands)
	labels := make([]float64, len(cands))
	gen, err := snorkel.FitGenerative(votes, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range votes {
		labels[i] = gen.Posterior(row)
	}
	clf := NewClassifier(enc.EmbeddingDim(), DefaultClassifierConfig())
	clf.Train(cands, labels)

	var bin metrics.Binary
	for i, c := range Candidates(enc, nil, test) {
		bin.Observe(clf.Predict(c) > 0.5, test[i].Label)
	}
	// Baseline: always answering "not a pair".
	var base metrics.Binary
	for _, ex := range test {
		base.Observe(false, ex.Label)
	}
	if bin.Accuracy() <= base.Accuracy() {
		t.Fatalf("discriminative model (%v) must beat always-negative (%v)",
			bin.Accuracy(), base.Accuracy())
	}
	if bin.Recall() == 0 {
		t.Fatal("discriminative model predicts nothing positive")
	}
}

func TestClassifierFitsGoldLabelsDirectly(t *testing.T) {
	// Sanity: with gold labels the classifier must fit its training set.
	train, _ := pairingData(t)
	if len(train) > 200 {
		train = train[:200]
	}
	enc := trainedEncoder(t, train)
	cands := Candidates(enc, nil, train)
	labels := make([]float64, len(train))
	for i, ex := range train {
		if ex.Label {
			labels[i] = 1
		}
	}
	cfg := DefaultClassifierConfig()
	cfg.Epochs = 8
	clf := NewClassifier(enc.EmbeddingDim(), cfg)
	clf.Train(cands, labels)
	correct := 0
	for i, c := range cands {
		if (clf.Predict(c) > 0.5) == (labels[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(cands)); acc < 0.75 {
		t.Fatalf("classifier cannot fit its own training data: %v", acc)
	}
}

func TestLFBertNaming(t *testing.T) {
	if got := lfBertName(7, 10); got != "lf_bert_7:10" {
		t.Fatalf("name: %s", got)
	}
	if got := lfBertName(0, 0); got != "lf_bert_0:0" {
		t.Fatalf("name: %s", got)
	}
}

// TestCandidatesShareOneSentencePerRun: every candidate of a sentence points
// at one Sentence, built once, whose rows and attention are the encoder's
// reentrant forward bit for bit and whose tree is the sentence's parse.
func TestCandidatesShareOneSentencePerRun(t *testing.T) {
	sents, _ := datasets.PairingBenchmark(datasets.Fast)
	var exs []datasets.PairingExample
	runs := 0
	for _, s := range sents[:6] {
		if pairs := datasets.EnumeratePairs(s); len(pairs) > 0 {
			exs = append(exs, pairs...)
			runs++
		}
	}
	enc := trainedEncoder(t, exs)
	lex := parse.DomainLexicon(lexicon.Hotels())
	cands := Candidates(enc, lex, exs)
	distinct := map[*Sentence]bool{}
	for i, c := range cands {
		distinct[c.Sent] = true
		if i > 0 && (cands[i-1].Sent == c.Sent) != slices.Equal(exs[i-1].Tokens, exs[i].Tokens) {
			t.Fatalf("candidate %d: shares a sentence with its predecessor iff their tokens are equal", i)
		}
		if c.Aspect != exs[i].Aspect || c.Opinion != exs[i].Opinion {
			t.Fatalf("candidate %d: spans not copied from its example", i)
		}
	}
	if len(distinct) != runs {
		t.Fatalf("%d sentences built for %d runs of equal tokens", len(distinct), runs)
	}
	s := cands[0].Sent
	var a nn.Arena
	want := enc.InferAttentionArena(s.Tokens, &a)
	if !slices.Equal(s.Enc.Rows.Data, want.Rows.Data) {
		t.Fatal("shared rows differ from the reentrant forward")
	}
	for l := range want.Attn {
		if !slices.Equal(s.Enc.Attn[l].Data, want.Attn[l].Data) {
			t.Fatalf("shared layer %d attention differs from the reentrant forward", l)
		}
	}
	if got, want := s.Tree.String(), parse.Build(lex, s.Tokens).String(); got != want {
		t.Fatalf("shared tree %s, want %s", got, want)
	}
}
