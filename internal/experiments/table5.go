package experiments

import (
	"io"

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/lexicon"
	"saccs/internal/metrics"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/snorkel"
)

// PaperHeadNames are the §6.4 labeling-function labels. BERT-base's
// layer:head geometry does not transfer to MiniBERT, so the five selected
// heads keep the paper's display names in rank order (see EXPERIMENTS.md for
// the mapping actually chosen by the qualitative analysis).
var PaperHeadNames = []string{
	"lf_bert_7:10", "lf_bert_3:10", "lf_bert_3:8", "lf_bert_4:6", "lf_bert_8:9",
}

// Table5Row is one pairing model's metrics (×100). Accuracy-only rows (the
// paper's OpineDB row) leave the others negative.
type Table5Row struct {
	Model                            string
	Accuracy, Precision, Recall, F1C float64
}

// Table5Result is the §6.4 pairing evaluation.
type Table5Result struct {
	Rows []Table5Row
	// Heads records which (layer, head) each lf_bert name mapped to.
	Heads []pairing.HeadScore
}

// Row returns the row with the given model name.
func (r Table5Result) Row(model string) (Table5Row, bool) {
	for _, row := range r.Rows {
		if row.Model == model {
			return row, true
		}
	}
	return Table5Row{}, false
}

// Table5 reproduces the pairing evaluation: the seven labeling functions,
// the majority-vote and probabilistic generative label models, and the
// discriminative classifier trained on data-programming labels over the
// hotels corpus (§6.4). The OpineDB row is reproduced with the word-distance
// pairing that system used.
func Table5(scale Scale, w io.Writer) Table5Result {
	trainSents, test := datasets.PairingBenchmark(scale)
	domain := lexicon.Hotels()
	lex := parse.DomainLexicon(domain)

	var trainTokens [][]string
	var trainExs []datasets.PairingExample
	for _, s := range trainSents {
		trainTokens = append(trainTokens, s.Tokens)
		trainExs = append(trainExs, datasets.EnumeratePairs(s)...)
	}
	// The attention heuristic reads the heads of an encoder steeped in the
	// domain (§5.1); give the pairing encoder a longer domain post-training
	// than the default recipe.
	opts := core.EncoderOptsFor(scale)
	if opts.MLM.Epochs < 6 {
		opts.MLM.Epochs = 6
	}
	enc := core.BuildEncoder(opts, domain, trainTokens)

	// Qualitative analysis: pick the five best heads on a dev slice.
	devN := len(trainExs) / 4
	if devN > 300 {
		devN = 300
	}
	heads := pairing.SelectHeads(enc, trainExs[:devN], 5)
	lfs := pairing.StandardLFs(enc, lex, heads, PaperHeadNames)

	// Candidates.
	trainCands := make([]pairing.Candidate, len(trainExs))
	for i, ex := range trainExs {
		trainCands[i] = pairing.CandidateFromExample(ex)
	}
	testCands := make([]pairing.Candidate, len(test))
	for i, ex := range test {
		testCands[i] = pairing.CandidateFromExample(ex)
	}

	trainVotes := snorkel.ApplyAll(lfs, trainCands)
	testVotes := snorkel.ApplyAll(lfs, testCands)

	res := Table5Result{Heads: heads}

	// OpineDB stand-in: the word-distance pairing of [31, 55, 56].
	wd := pairing.LFFromHeuristic(pairing.WordDistance{FromOpinions: true})
	res.Rows = append(res.Rows, evalPredictor("OpineDB", test, func(i int) bool {
		return wd.Apply(testCands[i]) == snorkel.Positive
	}))

	// Individual labeling functions (in the paper's row order: bert LFs
	// then tree LFs — our lfs slice is tree-first, so reorder).
	order := []int{2, 3, 4, 5, 6, 1, 0} // five bert heads, lf_tree_op, lf_tree_as
	for _, j := range order {
		if j >= len(lfs) {
			continue
		}
		j := j
		res.Rows = append(res.Rows, evalPredictor(lfs[j].Name, test, func(i int) bool {
			return testVotes[i][j] == snorkel.Positive
		}))
	}

	// Generative models.
	mv := snorkel.Majority{}
	res.Rows = append(res.Rows, evalPredictor("Majority Vote", test, func(i int) bool {
		return snorkel.Predict(mv, testVotes[i])
	}))
	// The probabilistic row uses the Dawid–Skene generative model (per-LF
	// sensitivity/specificity), which our asymmetric labeling functions
	// need; see EXPERIMENTS.md for how this differs from the paper's tied
	// Snorkel model.
	gen, err := snorkel.FitGenerative(trainVotes, 25)
	if err != nil {
		gen = nil
	}
	if gen != nil {
		res.Rows = append(res.Rows, evalPredictor("Probabilistic Model", test, func(i int) bool {
			return snorkel.Predict(gen, testVotes[i])
		}))
	}

	// Discriminative model trained on the generative model's probabilistic
	// labels (Fig. 6's pipeline), falling back to majority vote if EM fails.
	labels := make([]float64, len(trainCands))
	for i, row := range trainVotes {
		if gen != nil {
			labels[i] = gen.Posterior(row)
		} else if snorkel.Predict(mv, row) {
			labels[i] = 1
		}
	}
	ccfg := pairing.DefaultClassifierConfig()
	ccfg.Hidden = 64
	ccfg.Epochs = 12
	clf := pairing.NewClassifier(enc, ccfg)
	clf.Lex = lex
	clf.Train(trainCands, labels)
	res.Rows = append(res.Rows, evalPredictor("Discriminative", test, func(i int) bool {
		return clf.Predict(testCands[i]) > 0.5
	}))

	res.print(w)
	return res
}

// evalPredictor computes a Table 5 row from a per-example predictor.
func evalPredictor(name string, test []datasets.PairingExample, pred func(i int) bool) Table5Row {
	var bin metrics.Binary
	for i, ex := range test {
		bin.Observe(pred(i), ex.Label)
	}
	return Table5Row{
		Model:     name,
		Accuracy:  100 * bin.Accuracy(),
		Precision: 100 * bin.Precision(),
		Recall:    100 * bin.Recall(),
		F1C:       100 * bin.F1(),
	}
}

func (r Table5Result) print(w io.Writer) {
	fprintf(w, "Table 5: Evaluation of the pairing models (x100)\n")
	fprintf(w, "%-22s %9s %10s %8s %8s\n", "Models", "Accuracy", "Precision", "Recall", "F1")
	for _, row := range r.Rows {
		fprintf(w, "%-22s %9.2f %10.2f %8.2f %8.2f\n",
			row.Model, row.Accuracy, row.Precision, row.Recall, row.F1C)
	}
	fprintf(w, "head mapping:")
	for i, h := range r.Heads {
		name := ""
		if i < len(PaperHeadNames) {
			name = PaperHeadNames[i]
		}
		fprintf(w, " %s->(layer %d, head %d)", name, h.Layer, h.Head)
	}
	fprintf(w, "\n")
}
