// Package datasets materializes the labeled corpora of Table 3 as synthetic
// equivalents: S1 (SemEval-14 Restaurants), S2 (SemEval-14 Electronics),
// S3 (SemEval-15 Restaurants) and S4 (Booking.com Hotels, created by
// OpineDB [31]), each with gold IOB labels and gold pairings generated by
// construction, plus the 397-example pairing benchmark of §6.4. Paper scale
// matches Table 3's sentence counts exactly; Fast scale shrinks everything
// ~10× for CI.
package datasets

import (
	"math/rand"
	"sort"

	"saccs/internal/corpus"
	"saccs/internal/lexicon"
	"saccs/internal/tokenize"
)

// Scale selects corpus sizes.
type Scale int

// Fast is the CI scale (~10× smaller); Paper matches Table 3.
const (
	Fast Scale = iota
	Paper
)

// Example is one annotated sentence.
type Example struct {
	Tokens []string
	Labels []tokenize.Label
	Pairs  []corpus.Pair
}

// Dataset is one Table 3 corpus with its train/test split.
type Dataset struct {
	// Name is the Table 3 id (S1..S4).
	Name string
	// Description mirrors Table 3's description column.
	Description string
	// Domain is the lexicon the corpus is generated from.
	Domain *lexicon.Domain
	Train  []Example
	Test   []Example
}

// Total returns the combined sentence count.
func (d *Dataset) Total() int { return len(d.Train) + len(d.Test) }

type spec struct {
	name, description string
	domain            func() *lexicon.Domain
	train, test       int
	opts              corpus.Options
	seed              int64
}

var specs = []spec{
	{
		name: "S1", description: "SemEval-14 Restaurants",
		domain: lexicon.Restaurants, train: 3041, test: 800,
		opts: corpus.Options{MaxClauses: 2},
		seed: 101,
	},
	{
		name: "S2", description: "SemEval-14 Electronics",
		domain: lexicon.Electronics, train: 3045, test: 800,
		// Electronics reviews carry more technical filler and typos (§6.3's
		// brand names and numerical references are in the lexicon).
		opts: corpus.Options{MaxClauses: 2, TypoProb: 0.02, DistractorProb: 0.4},
		seed: 102,
	},
	{
		name: "S3", description: "SemEval-15 Restaurants",
		domain: lexicon.Restaurants, train: 1315, test: 685,
		opts: corpus.Options{MaxClauses: 3, TypoProb: 0.03, DistractorProb: 0.35},
		seed: 103,
	},
	{
		name: "S4", description: "Booking.com Hotels",
		domain: lexicon.Hotels, train: 800, test: 112,
		opts: corpus.Options{MaxClauses: 2},
		seed: 104,
	},
}

func scaled(n int, s Scale) int {
	if s == Paper {
		return n
	}
	out := n / 10
	if out < 12 {
		out = 12
	}
	return out
}

func build(sp spec, s Scale) *Dataset {
	g := corpus.NewGenerator(sp.domain(), sp.seed, sp.opts)
	d := &Dataset{Name: sp.name, Description: sp.description, Domain: sp.domain()}
	nTrain, nTest := scaled(sp.train, s), scaled(sp.test, s)
	for i := 0; i < nTrain; i++ {
		// Every seventh training sentence is a conversational utterance so
		// the tagger covers the dialog side of §3.2, not just review prose.
		if i%7 == 6 {
			d.Train = append(d.Train, fromSentence(g.RandomUtterance(3)))
			continue
		}
		d.Train = append(d.Train, fromSentence(g.Sentence()))
	}
	for i := 0; i < nTest; i++ {
		d.Test = append(d.Test, fromSentence(g.Sentence()))
	}
	return d
}

func fromSentence(s corpus.Sentence) Example {
	return Example{Tokens: s.Tokens, Labels: s.Labels, Pairs: s.Pairs}
}

// S1 returns the SemEval-14 Restaurants equivalent.
func S1(s Scale) *Dataset { return build(specs[0], s) }

// S2 returns the SemEval-14 Electronics equivalent.
func S2(s Scale) *Dataset { return build(specs[1], s) }

// S3 returns the SemEval-15 Restaurants equivalent.
func S3(s Scale) *Dataset { return build(specs[2], s) }

// S4 returns the Booking.com Hotels equivalent.
func S4(s Scale) *Dataset { return build(specs[3], s) }

// All returns S1–S4 in Table 3 order.
func All(s Scale) []*Dataset {
	return []*Dataset{S1(s), S2(s), S3(s), S4(s)}
}

// PairingExample is one §6.4 benchmark item: a review sentence, a candidate
// subjective tag ("delicious staff"), and whether the tag is a correct
// extraction from the sentence.
type PairingExample struct {
	Tokens []string
	// Phrase is "<opinion> <aspect>" in tag order.
	Phrase string
	// Aspect and Opinion are the candidate spans inside Tokens.
	Aspect, Opinion tokenize.Span
	// Aspects and Opinions list every extracted span in the sentence — the
	// context the pairing heuristics reason over.
	Aspects, Opinions []tokenize.Span
	// Label is true when the pair is a gold extraction.
	Label bool
}

// Labels returns the examples' gold labels, in order.
func Labels(exs []PairingExample) []bool {
	out := make([]bool, len(exs))
	for i, ex := range exs {
		out[i] = ex.Label
	}
	return out
}

// PairingBenchmark generates the §6.4 evaluation data from the hotels domain
// (the paper trains its pairing model on the Booking.com corpus): unlabeled
// training sentences for the data-programming pipeline and a labeled test
// set with a fairly equal positive/negative balance. At Paper scale the test
// set has 397 examples, matching the paper. A sentence's test examples are
// consecutive, so pairing.Candidates encodes each sentence once.
func PairingBenchmark(s Scale) (train []corpus.Sentence, test []PairingExample) {
	g := corpus.NewGenerator(lexicon.Hotels(), 4242, corpus.Options{
		MaxClauses:       3,
		MultiOpinionProb: 0.45,
		MultiAspectProb:  0.15,
		TypoProb:         0.03,
		DistractorProb:   0.35,
	})
	nTrain := scaled(800, s)
	for i := 0; i < nTrain; i++ {
		train = append(train, g.Sentence())
	}
	wantTest := 397
	if s == Fast {
		wantTest = 60
	}
	rng := rand.New(rand.NewSource(777))
	for len(test) < wantTest {
		sent := g.Sentence()
		exs := EnumeratePairs(sent)
		if len(exs) == 0 {
			continue
		}
		// Keep a balanced sample: one positive and one negative per sentence
		// when available.
		var pos, neg []PairingExample
		for _, ex := range exs {
			if ex.Label {
				pos = append(pos, ex)
			} else {
				neg = append(neg, ex)
			}
		}
		// Bias the benchmark toward the cases §5 motivates: gold pairs that
		// span a long surface distance (where word distance fails) and wrong
		// pairs that sit close together (the professional/decor trap). One
		// hard and one random example of each polarity per sentence.
		span := func(ex PairingExample) int {
			d := (ex.Aspect.Start + ex.Aspect.End) - (ex.Opinion.Start + ex.Opinion.End)
			if d < 0 {
				d = -d
			}
			return d
		}
		sort.Slice(pos, func(i, j int) bool { return span(pos[i]) > span(pos[j]) })
		sort.Slice(neg, func(i, j int) bool { return span(neg[i]) < span(neg[j]) })
		take := func(pool []PairingExample) {
			if len(pool) == 0 || len(test) >= wantTest {
				return
			}
			test = append(test, pool[0]) // hardest first
			if len(pool) > 1 && len(test) < wantTest {
				test = append(test, pool[1+rng.Intn(len(pool)-1)])
			}
		}
		take(pos)
		take(neg)
	}
	return train, test[:wantTest]
}

// EnumeratePairs builds every candidate (aspect, opinion) combination from a
// gold-annotated sentence — the P_all of §5.2 — labeling each by whether it
// appears among the sentence's gold pairs. Every example shares s.Tokens.
func EnumeratePairs(s corpus.Sentence) []PairingExample {
	spans := tokenize.Spans(s.Labels)
	var aspects, opinions []tokenize.Span
	for _, sp := range spans {
		if sp.Kind == tokenize.AspectSpan {
			aspects = append(aspects, sp)
		} else {
			opinions = append(opinions, sp)
		}
	}
	goldSet := map[[4]int]bool{}
	for _, p := range s.Pairs {
		goldSet[[4]int{p.Aspect.Start, p.Aspect.End, p.Opinion.Start, p.Opinion.End}] = true
	}
	var out []PairingExample
	for _, a := range aspects {
		for _, o := range opinions {
			out = append(out, PairingExample{
				Tokens:   s.Tokens,
				Phrase:   o.Text(s.Tokens) + " " + a.Text(s.Tokens),
				Aspect:   a,
				Opinion:  o,
				Aspects:  aspects,
				Opinions: opinions,
				Label:    goldSet[[4]int{a.Start, a.End, o.Start, o.End}],
			})
		}
	}
	return out
}
