// Tagging: a walk through the §4+§5 extraction pipeline — IOB tagging with
// the BERT→BiLSTM→CRF model (Fig. 2/3), adversarial robustness, the pairing
// heuristics on the paper's hard example (§5.1), and a Fig. 5-style
// attention heatmap.
package main

import (
	"fmt"

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/experiments"
	"saccs/internal/lexicon"
	"saccs/internal/nn"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/tokenize"
)

func main() {
	fmt.Println("=== Figure 2: token tagging and pairing ===")
	experiments.Figure2(experiments.Fast, printWriter{})

	fmt.Println("\n=== §5.1: word distance vs parse tree on the hard example ===")
	tokens := tokenize.Words("The staff is friendly, helpful and professional. The decor is beautiful.")
	lex := parse.DomainLexicon(lexicon.Restaurants())
	tree := parse.Build(lex, tokens)
	fmt.Println("parse:", tree)

	aspects := []tokenize.Span{{Kind: tokenize.AspectSpan, Start: 1, End: 2}, {Kind: tokenize.AspectSpan, Start: 10, End: 11}}
	opinions := []tokenize.Span{
		{Kind: tokenize.OpinionSpan, Start: 3, End: 4}, {Kind: tokenize.OpinionSpan, Start: 5, End: 6},
		{Kind: tokenize.OpinionSpan, Start: 7, End: 8}, {Kind: tokenize.OpinionSpan, Start: 12, End: 13},
	}
	show := func(name string, pairs []pairing.Pair) {
		fmt.Printf("%-14s", name)
		for _, p := range pairs {
			fmt.Printf("  (%s, %s)", p.Aspect.Text(tokens), p.Opinion.Text(tokens))
		}
		fmt.Println()
	}
	show("word distance:", pairing.WordDistance{FromOpinions: true}.Pairs(tokens, aspects, opinions))
	show("parse tree:", pairing.Tree{Lex: lex, FromOpinions: true}.Pairs(tokens, aspects, opinions))

	fmt.Println("\n=== §4.3: adversarial robustness to typos ===")
	d := datasets.S4(datasets.Fast)
	clean := core.TrainTagger(d.Domain, d, datasets.Fast, false, 0, nn.Float64, nil)
	adv := core.TrainTagger(d.Domain, d, datasets.Fast, true, 0.2, nn.Float64, nil)
	fmt.Printf("clean-trained tagger F1:       %.3f\n", clean.Evaluate(d.Test).F1)
	fmt.Printf("adversarially trained (ε=0.2): %.3f\n", adv.Evaluate(d.Test).F1)

	fmt.Println("\n=== Figure 5: attention-head heatmap ===")
	experiments.Figure5(experiments.Fast, printWriter{})
}

// printWriter adapts stdout for the experiment regenerators.
type printWriter struct{}

func (printWriter) Write(p []byte) (int, error) {
	fmt.Print(string(p))
	return len(p), nil
}
