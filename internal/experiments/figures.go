package experiments

import (
	"io"

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/index"
	"saccs/internal/lexicon"
	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/sim"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
)

// Figure1Result captures the Fig. 1 walkthrough: the index after one round.
type Figure1Result struct {
	IndexedTags map[string][]index.Entry
	HistoryTags []string
}

// Figure1 replays the paper's Fig. 1 example: an index holding {good food,
// great atmosphere}; entities E1/E3/E5 whose single reviews yield the tags
// {good food}, {superb atmosphere}, {amazing pizza}; the similarity checker
// admits E1 and E5 under "good food" but not E3; a user utterance introduces
// "romantic ambiance", which lands in the user tag history.
func Figure1(w io.Writer) Figure1Result {
	measure := sim.NewConceptual()
	ix := index.New(measure, core.ThetaIndex)
	entities := []index.EntityReviews{
		{EntityID: "E1", ReviewCount: 1, Tags: []string{"good food"}},
		{EntityID: "E3", ReviewCount: 1, Tags: []string{"superb atmosphere"}},
		{EntityID: "E5", ReviewCount: 1, Tags: []string{"amazing pizza"}},
	}
	ix.Build([]string{"good food", "great atmosphere"}, entities)

	hist := index.NewHistory()
	utteranceTag := "romantic ambiance"
	if !ix.Has(utteranceTag) {
		hist.Add(utteranceTag)
	}

	res := Figure1Result{IndexedTags: map[string][]index.Entry{}, HistoryTags: hist.Pending()}
	fprintf(w, "Figure 1: subjective tag indexing walkthrough\n")
	for _, tag := range ix.Tags() {
		entries := ix.Lookup(tag)
		res.IndexedTags[tag] = entries
		fprintf(w, "  index[%q] ->", tag)
		for _, e := range entries {
			fprintf(w, " %s(%.2f)", e.EntityID, e.Degree)
		}
		fprintf(w, "\n")
	}
	fprintf(w, "  user utterance tag %q unknown -> user tag history %v\n",
		utteranceTag, res.HistoryTags)

	// Next indexing round picks the history up.
	for _, tag := range hist.Drain() {
		ix.AddTag(tag, entities)
	}
	fprintf(w, "  after next round, index has %d tags\n", ix.Len())
	return res
}

// Figure2Result is the tagging + pairing demo output.
type Figure2Result struct {
	Tokens []string
	Labels []tokenize.Label
	Pairs  []pairing.Pair
}

// Figure2 reproduces the paper's Fig. 2 on its example sentence "The food
// was really good but the service was a bit slow", using a tagger trained at
// the given scale and the tree pairing heuristic.
func Figure2(scale Scale, w io.Writer) Figure2Result {
	d := datasets.S1(scale)
	enc := core.BuildEncoder(core.EncoderOptsFor(scale), d.Domain, core.Tokens(d.Train))
	cfg := table4TaggerCfg(scale)
	if cfg.Epochs < 6 {
		cfg.Epochs = 6 // the demo sentence deserves a fully converged tagger
	}
	m := tagger.New(enc, cfg)
	m.Train(d.Train)

	tokens := tokenize.Words("The food was really good but the service was a bit slow")
	labels := m.Predict(tokens)
	spans := tokenize.Spans(labels)
	var aspects, opinions []tokenize.Span
	for _, sp := range spans {
		if sp.Kind == tokenize.AspectSpan {
			aspects = append(aspects, sp)
		} else {
			opinions = append(opinions, sp)
		}
	}
	tr := pairing.Tree{Lex: parse.DomainLexicon(d.Domain), FromOpinions: true}
	pairs := tr.Pairs(tokens, aspects, opinions)

	fprintf(w, "Figure 2: token tagging and pairing\n  ")
	for i, tok := range tokens {
		fprintf(w, "%s/%s ", tok, labels[i])
	}
	fprintf(w, "\n  pairs:")
	for _, p := range pairs {
		fprintf(w, " (%s, %s)", p.Aspect.Text(tokens), p.Opinion.Text(tokens))
	}
	fprintf(w, "\n")
	return Figure2Result{Tokens: tokens, Labels: labels, Pairs: pairs}
}

// Figure5Result is the attention heatmap.
type Figure5Result struct {
	Tokens    []string
	Layer     int
	Head      int
	Attention *mat.Mat
}

// Figure5 renders the paper's attention-head heatmap: on "the food is
// delicious and the staff and decor are amazing", the best pairing head
// should make food attend to delicious, and staff/decor to amazing. The
// heatmap is printed with shade characters, darkest = highest attention.
func Figure5(scale Scale, w io.Writer) Figure5Result {
	trainSents, _ := datasets.PairingBenchmark(scale)
	domain := lexicon.Hotels()
	var trainTokens [][]string
	var exs []datasets.PairingExample
	for _, s := range trainSents {
		trainTokens = append(trainTokens, s.Tokens)
		exs = append(exs, datasets.EnumeratePairs(s)...)
	}
	// Include the restaurant words of the figure's sentence in the vocab.
	rest := lexicon.Restaurants()
	for _, f := range rest.Features {
		for _, v := range append(append([]string{}, f.AspectSyns...), f.PosOps...) {
			trainTokens = append(trainTokens, tokenize.Words(v))
		}
	}
	enc := core.BuildEncoder(core.EncoderOptsFor(scale), domain, trainTokens)
	devN := len(exs)
	if devN > 200 {
		devN = 200
	}
	heads := pairing.SelectHeads(pairing.Candidates(enc, nil, exs[:devN]), datasets.Labels(exs[:devN]), 1)
	layer, head := heads[0].Layer, heads[0].Head

	tokens := tokenize.Words("the food is delicious and the staff and decor are amazing")
	var a nn.Arena
	attn := enc.InferAttentionArena(tokens, &a).Attention(layer, head)

	fprintf(w, "Figure 5: BERT attention head (layer %d, head %d) on %q\n", layer, head, "the food is delicious ...")
	shades := []rune(" .:-=+*#%@")
	fprintf(w, "%12s", "")
	for _, tok := range tokens {
		fprintf(w, " %4.4s", tok)
	}
	fprintf(w, "\n")
	for i, tok := range tokens {
		fprintf(w, "%12.12s", tok)
		for j := range tokens {
			v := attn.At(i, j)
			idx := int(v * float64(len(shades)))
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			fprintf(w, "  %c%c ", shades[idx], shades[idx])
		}
		fprintf(w, "\n")
	}
	return Figure5Result{Tokens: tokens, Layer: layer, Head: head, Attention: attn}
}
