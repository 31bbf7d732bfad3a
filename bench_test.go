// Benchmarks: one per table and figure of the paper (regenerating the
// corresponding measurement at fast scale and reporting it as a custom
// metric), plus the ablation benches DESIGN.md §4 calls out. Absolute
// wall-clock numbers measure this reproduction's substrate, not the paper's
// testbed; the reported ndcg/f1/accuracy metrics are the reproduced values.
//
// Run everything:  go test -bench=. -benchmem
package saccs

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"saccs/internal/core"
	"saccs/internal/crowd"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/index"
	"saccs/internal/ir"
	"saccs/internal/lexicon"
	"saccs/internal/mat"
	"saccs/internal/metrics"
	"saccs/internal/nn"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/search"
	"saccs/internal/sim"
	"saccs/internal/simbaseline"
	"saccs/internal/snorkel"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// --- shared lazy fixtures ---------------------------------------------------

var (
	envOnce sync.Once
	env     *experiments.Table2Env
)

// table2Env builds the expensive Table 2 environment once per bench run.
func table2Env(b *testing.B) *experiments.Table2Env {
	b.Helper()
	envOnce.Do(func() {
		env = experiments.BuildTable2Env(experiments.Fast, nil)
	})
	return env
}

var (
	goldOnce    sync.Once
	goldW       *yelp.World
	goldReviews []index.EntityReviews
	goldTru     *crowd.Truth
)

// goldWorld builds the fast world's gold review tags once (for ablation
// benches that isolate index/ranking behaviour), through the producer every
// index build uses.
func goldWorld(b *testing.B) (*yelp.World, []index.EntityReviews, *crowd.Truth) {
	b.Helper()
	goldOnce.Do(func() {
		goldW = yelp.Generate(yelp.FastConfig())
		goldTru = crowd.GroundTruth(goldW, crowd.DefaultConfig())
		goldReviews, _ = core.EntityReviews(context.Background(), goldW.IDs(), goldW.Reviews(), (*yelp.Review).GoldTags)
	})
	return goldW, goldReviews, goldTru
}

// goldIndex indexes the world's canonical tags over reviews at the paper's
// θ_index, with or without Eq. 1's review-count weighting.
func goldIndex(w *yelp.World, reviews []index.EntityReviews, weighting bool) *index.Index {
	ix := index.New(sim.NewConceptual(), core.ThetaIndex)
	ix.SetReviewWeighting(weighting)
	ix.Build(core.CanonicalTags(w.Domain), reviews)
	return ix
}

// meanNDCGOverQueries ranks the Short+Medium+Long sets over every entity of
// the world with Algorithm 1 under agg and returns their mean NDCG.
func meanNDCGOverQueries(ix *index.Index, w *yelp.World, truth *crowd.Truth, agg search.Aggregation, topK int) float64 {
	qs := experiments.MakeQueries(core.CanonicalTags(w.Domain), 12, 5)
	ids := w.IDs()
	snap := ix.Current()
	rk := search.Ranker{Snap: snap, ThetaFilter: core.ThetaFilter, Agg: agg}
	cands := search.NewCandidates(snap, ids)
	var vals []float64
	for _, d := range []experiments.Difficulty{experiments.Short, experiments.Medium, experiments.Long} {
		for _, q := range qs[d] {
			gains := truth.Gains(q.Tags, ids)
			ranked, _ := rk.TopK(context.Background(), nil, cands, q.Tags, topK)
			rids := make([]string, len(ranked))
			for i, s := range ranked {
				rids[i] = s.EntityID
			}
			vals = append(vals, metrics.NDCG(gains, rids, topK))
		}
	}
	return metrics.Mean(vals)
}

// --- Table 1 ----------------------------------------------------------------

// BenchmarkTable1Index measures one indexing round: computing Eq. 1 degrees
// of truth for a tag over the whole world (Table 1's structure).
func BenchmarkTable1Index(b *testing.B) {
	_, entities, _ := goldWorld(b)
	measure := sim.NewConceptual()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := index.New(measure, 0.55)
		ix.AddTag("delicious food", entities)
	}
}

// --- Table 2 ----------------------------------------------------------------

// BenchmarkTable2IR reproduces the IR baseline row (query evaluation only;
// the BM25 index is prebuilt) and reports its mean NDCG.
func BenchmarkTable2IR(b *testing.B) {
	e := table2Env(b)
	var row experiments.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = e.EvalIR()
	}
	b.ReportMetric(row.Short, "ndcg-short")
	b.ReportMetric(row.Long, "ndcg-long")
}

// BenchmarkTable2SIM reproduces the SIM-2 baseline row.
func BenchmarkTable2SIM(b *testing.B) {
	e := table2Env(b)
	var row experiments.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = e.EvalSIM(2)
	}
	b.ReportMetric(row.Short, "ndcg-short")
	b.ReportMetric(row.Long, "ndcg-long")
}

// BenchmarkTable2SACCS reproduces the SACCS-18 row (index build + query
// evaluation per iteration).
func BenchmarkTable2SACCS(b *testing.B) {
	e := table2Env(b)
	var row experiments.Table2Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		row = e.EvalSACCS(18)
	}
	b.ReportMetric(row.Short, "ndcg-short")
	b.ReportMetric(row.Long, "ndcg-long")
}

// --- Table 3 ----------------------------------------------------------------

// BenchmarkTable3Datasets measures generating the four Table 3 corpora.
func BenchmarkTable3Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(datasets.All(datasets.Fast)); got != 4 {
			b.Fatalf("datasets: %d", got)
		}
	}
}

// --- Table 4 ----------------------------------------------------------------

// table4Slice returns a small S4 slice for per-iteration tagger training.
func table4Slice() (*datasets.Dataset, tagger.Encoder) {
	d := datasets.S4(datasets.Fast)
	if len(d.Train) > 40 {
		d.Train = d.Train[:40]
	}
	enc := core.BuildEncoder(core.EncoderOptsFor(datasets.Fast), d.Domain, nil)
	return d, enc
}

// BenchmarkTable4OpineDB trains and evaluates the baseline tagger
// (BERT + per-token classifier) on a small slice, reporting chunk F1.
func BenchmarkTable4OpineDB(b *testing.B) {
	d, enc := table4Slice()
	cfg := tagger.DefaultConfig()
	cfg.Epochs = 3
	var f1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := tagger.NewOpineDB(enc, cfg)
		o.Train(d.Train)
		f1 = o.Evaluate(d.Test).F1
	}
	b.ReportMetric(100*f1, "f1")
}

// BenchmarkTable4Adversarial trains and evaluates the SACCS tagger with
// FGSM (ε=0.2), reporting chunk F1.
func BenchmarkTable4Adversarial(b *testing.B) {
	d, enc := table4Slice()
	cfg := tagger.DefaultConfig()
	cfg.Epochs = 3
	cfg.Adversarial = true
	cfg.Epsilon = 0.2
	var f1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tagger.New(enc, cfg)
		m.Train(d.Train)
		f1 = m.Evaluate(d.Test).F1
	}
	b.ReportMetric(100*f1, "f1")
}

// --- Table 5 ----------------------------------------------------------------

var (
	pairOnce  sync.Once
	pairTest  []datasets.PairingExample
	pairVotes [][]snorkel.Vote
	pairLFs   []snorkel.LF[pairing.Candidate]
)

func pairingFixture(b *testing.B) {
	b.Helper()
	pairOnce.Do(func() {
		sents, test := datasets.PairingBenchmark(datasets.Fast)
		pairTest = test
		var exs []datasets.PairingExample
		for _, s := range sents {
			exs = append(exs, datasets.EnumeratePairs(s)...)
		}
		enc := core.BuildEncoder(core.EncoderOptsFor(datasets.Fast), lexicon.Hotels(), nil)
		heads := pairing.SelectHeads(enc, exs[:120], 5)
		pairLFs = pairing.StandardLFs(enc, parse.DomainLexicon(lexicon.Hotels()), heads, experiments.PaperHeadNames)
		cands := make([]pairing.Candidate, len(test))
		for i, ex := range test {
			cands[i] = pairing.CandidateFromExample(ex)
		}
		pairVotes = snorkel.ApplyAll(pairLFs, cands)
	})
}

// BenchmarkTable5LabelingFunctions measures applying the seven §5.2 labeling
// functions to one candidate.
func BenchmarkTable5LabelingFunctions(b *testing.B) {
	pairingFixture(b)
	cand := pairing.CandidateFromExample(pairTest[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lf := range pairLFs {
			lf.Apply(cand)
		}
	}
}

// BenchmarkTable5MajorityVote measures the majority-vote label model over
// the test votes and reports its accuracy.
func BenchmarkTable5MajorityVote(b *testing.B) {
	pairingFixture(b)
	mv := snorkel.Majority{}
	var bin metrics.Binary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bin = metrics.Binary{}
		for j, row := range pairVotes {
			bin.Observe(snorkel.Predict(mv, row), pairTest[j].Label)
		}
	}
	b.ReportMetric(100*bin.Accuracy(), "accuracy")
}

// BenchmarkTable5Generative measures fitting the Dawid–Skene label model
// and reports its accuracy on the test votes.
func BenchmarkTable5Generative(b *testing.B) {
	pairingFixture(b)
	var bin metrics.Binary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := snorkel.FitGenerative(pairVotes, 25)
		if err != nil {
			b.Fatal(err)
		}
		bin = metrics.Binary{}
		for j, row := range pairVotes {
			bin.Observe(snorkel.Predict(g, row), pairTest[j].Label)
		}
	}
	b.ReportMetric(100*bin.Accuracy(), "accuracy")
}

// --- Figures ----------------------------------------------------------------

// BenchmarkFigure5Attention measures encoding a sentence and reading one
// attention head (the Fig. 5 heatmap's inner loop).
func BenchmarkFigure5Attention(b *testing.B) {
	v := tokenize.NewVocab()
	toks := tokenize.Words("the food is delicious and the staff and decor are amazing")
	v.AddAll(toks)
	opts := core.EncoderOptsFor(datasets.Fast)
	opts.GeneralSize = 40
	enc := core.BuildEncoder(opts, lexicon.Restaurants(), [][]string{toks})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.EncodeTokens(toks)
		if enc.Attention(0, 0) == nil {
			b.Fatal("no attention")
		}
	}
}

// --- Ablations (DESIGN.md §4) -----------------------------------------------

// BenchmarkAblationDegreeOfTruth compares Eq. 1 with and without the
// log(|Re|+1) review-count weighting, reporting both NDCGs.
func BenchmarkAblationDegreeOfTruth(b *testing.B) {
	w, reviews, truth := goldWorld(b)
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = meanNDCGOverQueries(goldIndex(w, reviews, true), w, truth, search.MeanAgg, 10)
		without = meanNDCGOverQueries(goldIndex(w, reviews, false), w, truth, search.MeanAgg, 10)
	}
	b.ReportMetric(with, "ndcg-weighted")
	b.ReportMetric(without, "ndcg-unweighted")
}

// BenchmarkAblationAggregation compares the §3.3 aggregation strategies
// (mean / product / min) on multi-tag queries.
func BenchmarkAblationAggregation(b *testing.B) {
	w, reviews, truth := goldWorld(b)
	scores := map[string]float64{}
	aggs := []struct {
		name string
		agg  search.Aggregation
	}{{"mean", search.MeanAgg}, {"product", search.ProductAgg}, {"min", search.MinAgg}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range aggs {
			scores[a.name] = meanNDCGOverQueries(goldIndex(w, reviews, true), w, truth, a.agg, 10)
		}
	}
	for _, a := range aggs {
		b.ReportMetric(scores[a.name], "ndcg-"+a.name)
	}
}

// BenchmarkAblationSimilarity compares conceptual similarity against plain
// MiniBERT cosine on the tag pairs the index cares about (§3.1's claim that
// conceptual similarity works better on short phrases).
func BenchmarkAblationSimilarity(b *testing.B) {
	enc := core.BuildEncoder(core.EncoderOptsFor(datasets.Fast), lexicon.Restaurants(), nil)
	conceptual := sim.NewConceptual()
	cosine := &sim.Cosine{Provider: enc}
	// Related pairs should outscore unrelated pairs; measure the margin.
	related := [][2]string{
		{"delicious food", "tasty food"}, {"amazing pizza", "good food"},
		{"nice staff", "friendly staff"}, {"quick service", "fast service"},
	}
	unrelated := [][2]string{
		{"delicious food", "nice staff"}, {"quick service", "cozy decor"},
		{"good view", "fair prices"}, {"fast delivery", "romantic ambiance"},
	}
	margin := func(m sim.Measure) float64 {
		var rel, unrel float64
		for _, p := range related {
			rel += m.Phrase(p[0], p[1])
		}
		for _, p := range unrelated {
			unrel += m.Phrase(p[0], p[1])
		}
		return (rel - unrel) / float64(len(related))
	}
	var cm, em float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm = margin(conceptual)
		em = margin(cosine)
	}
	b.ReportMetric(cm, "margin-conceptual")
	b.ReportMetric(em, "margin-cosine")
}

// BenchmarkAblationCRF compares the BiLSTM-CRF tagger against the
// per-token softmax baseline on the same encoder (the value of label
// dependencies, §4.1).
func BenchmarkAblationCRF(b *testing.B) {
	d, enc := table4Slice()
	cfg := tagger.DefaultConfig()
	cfg.Epochs = 3
	var crfF1, softmaxF1 float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := tagger.New(enc, cfg)
		m.Train(d.Train)
		crfF1 = m.Evaluate(d.Test).F1
		o := tagger.NewOpineDB(enc, cfg)
		o.Train(d.Train)
		softmaxF1 = o.Evaluate(d.Test).F1
	}
	b.ReportMetric(100*crfF1, "f1-crf")
	b.ReportMetric(100*softmaxF1, "f1-softmax")
}

// BenchmarkAblationAlpha sweeps the adversarial mixing weight α (Eq. 8).
func BenchmarkAblationAlpha(b *testing.B) {
	d, enc := table4Slice()
	alphas := []float64{0.25, 0.5, 0.75}
	f1s := make([]float64, len(alphas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, alpha := range alphas {
			cfg := tagger.DefaultConfig()
			cfg.Epochs = 3
			cfg.Adversarial = true
			cfg.Epsilon = 0.2
			cfg.Alpha = alpha
			m := tagger.New(enc, cfg)
			m.Train(d.Train)
			f1s[j] = m.Evaluate(d.Test).F1
		}
	}
	b.ReportMetric(100*f1s[0], "f1-alpha25")
	b.ReportMetric(100*f1s[1], "f1-alpha50")
	b.ReportMetric(100*f1s[2], "f1-alpha75")
}

// BenchmarkAblationPairing compares word distance, the two tree directions,
// and a raw attention head on the §6.4 benchmark (accuracy).
func BenchmarkAblationPairing(b *testing.B) {
	pairingFixture(b)
	lex := parse.DomainLexicon(lexicon.Hotels())
	heuristics := []pairing.Heuristic{
		pairing.WordDistance{FromOpinions: true},
		pairing.Tree{Lex: lex},
		pairing.Tree{Lex: lex, FromOpinions: true},
	}
	accs := make([]float64, len(heuristics))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, h := range heuristics {
			lf := pairing.LFFromHeuristic(h)
			var bin metrics.Binary
			for _, ex := range pairTest {
				bin.Observe(lf.Apply(pairing.CandidateFromExample(ex)) == snorkel.Positive, ex.Label)
			}
			accs[j] = bin.Accuracy()
		}
	}
	b.ReportMetric(100*accs[0], "acc-worddist")
	b.ReportMetric(100*accs[1], "acc-tree-as")
	b.ReportMetric(100*accs[2], "acc-tree-op")
}

// --- request telemetry --------------------------------------------------------

// BenchmarkQueryTelemetry measures what request telemetry costs a warm
// QueryCtx over the golden world (the utterance's sentences in the
// extraction cache, its candidate set memoised), in ns/op and allocs/op,
// in two modes: no trace sink, as under DefaultConfig (stage times go
// straight into the wide event, no span tree); and a RingSink (every
// request builds its span tree and delivers each span as it ends).
//
//	go test -run '^$' -bench QueryTelemetry -benchmem .
func BenchmarkQueryTelemetry(b *testing.B) {
	c := cloneForTest(b, newClient(b), DefaultConfig())
	defer c.Shutdown()
	if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()); err != nil {
		b.Fatal(err)
	}
	const utterance = "I want an Italian restaurant in Montreal with delicious food and helpful waiters"
	for _, mode := range []struct {
		name string
		sink bool
	}{
		{"sink=none", false},
		{"sink=ring", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			if mode.sink {
				c.SetTraceSink(NewRingSink(512))
				defer c.SetTraceSink(nil)
			}
			ctx := context.Background()
			if _, err := c.QueryCtx(ctx, utterance); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.QueryCtx(ctx, utterance); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- microbenchmarks on the substrates ---------------------------------------

// BenchmarkCRFViterbi measures Viterbi decoding on a 20-token sentence.
func BenchmarkCRFViterbi(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	crf := nn.NewCRF(rng, "b", int(tokenize.NumLabels))
	emissions := mat.NewMat(20, int(tokenize.NumLabels))
	for i := range emissions.Data {
		emissions.Data[i] = rng.NormFloat64()
	}
	var a nn.Arena
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Reset()
		crf.Decode(emissions, &a)
	}
}

// BenchmarkBM25Search measures one expanded-query search over the world's
// review corpus.
func BenchmarkBM25Search(b *testing.B) {
	w, _, _ := goldWorld(b)
	var docs []ir.Doc
	for _, e := range w.Entities {
		var toks []string
		for _, r := range e.Reviews {
			toks = append(toks, tokenize.Words(r.Text)...)
		}
		docs = append(docs, ir.Doc{ID: e.ID, Tokens: toks})
	}
	engine := ir.NewBM25(docs)
	query := ir.ExpandQuery([]string{"delicious food", "nice staff"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Search(query, 10)
	}
}

// BenchmarkSIMEnumeration measures the SIM baseline's full combination sweep
// for one query.
func BenchmarkSIMEnumeration(b *testing.B) {
	w, _, truth := goldWorld(b)
	gains := truth.Gains([]string{"quiet atmosphere"}, w.IDs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simbaseline.Best(w, gains, 10, 2)
	}
}
