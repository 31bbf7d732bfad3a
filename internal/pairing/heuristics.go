// Package pairing implements §5 of the paper: associating each extracted
// aspect term with its opinion term to form subjective tags.
//
//   - Two novel unsupervised heuristics (§5.1): parse-tree distance (run in
//     both directions, aspects→opinions and opinions→aspects) and BERT
//     attention heads (an aspect pairs with the opinion it attends to most,
//     Fig. 5). A word-distance heuristic is included as the ablation baseline
//     the paper criticizes.
//   - Seven labeling functions built from the heuristics (§5.2): two tree
//     LFs and five attention-head LFs, feeding the snorkel label models.
//   - A discriminative classifier (§5.2): a two-layer sigmoid network over
//     BERT encodings of the sentence and the candidate phrase, trained on
//     the data-programming labels.
package pairing

import (
	"math"

	"saccs/internal/bert"
	"saccs/internal/mat"
	"saccs/internal/parse"
	"saccs/internal/postag"
	"saccs/internal/snorkel"
	"saccs/internal/tokenize"
)

// Pair is one aspect↔opinion association proposed by a heuristic.
type Pair struct {
	Aspect, Opinion tokenize.Span
}

// Sentence is what every candidate of one sentence shares, computed once:
// the encoder's hidden rows and every layer×head attention block from one
// reentrant forward, and the parse tree.
type Sentence struct {
	Tokens []string
	Enc    bert.Encoding
	Tree   *parse.Tree
}

// newSentence returns the Sentence of tokens, copying e out of the arena it
// was carved from so that the arena can be reset for the next sentence.
func newSentence(e bert.Encoding, tree *parse.Tree, tokens []string) *Sentence {
	s := &Sentence{Tokens: tokens, Tree: tree, Enc: bert.Encoding{
		Rows: e.Rows.Clone(), Attn: make([]*mat.Mat, len(e.Attn)), Heads: e.Heads,
	}}
	for l, at := range e.Attn {
		s.Enc.Attn[l] = at.Clone()
	}
	return s
}

// Candidate is one pairing decision: does (Aspect, Opinion) form a correct
// subjective tag in its sentence? Aspects and Opinions carry every span the
// tagger extracted, because the heuristics reason over the full sentence.
type Candidate struct {
	Sent     *Sentence
	Aspects  []tokenize.Span
	Opinions []tokenize.Span
	Aspect   tokenize.Span
	Opinion  tokenize.Span
}

// proposedIn reports whether pairs holds the candidate's pair.
func (c Candidate) proposedIn(pairs []Pair) bool {
	for _, p := range pairs {
		if p.Aspect == c.Aspect && p.Opinion == c.Opinion {
			return true
		}
	}
	return false
}

// Heuristic proposes pairs for a tagged sentence.
type Heuristic interface {
	Name() string
	Pairs(tokens []string, aspects, opinions []tokenize.Span) []Pair
}

// spanMid returns a span's central token index.
func spanMid(s tokenize.Span) float64 { return float64(s.Start+s.End-1) / 2 }

// WordDistance is the naive baseline of §5: pair each source span with the
// nearest target span by token distance. It is exactly the method the paper
// shows failing on "The staff is friendly, helpful and professional. The
// decor is beautiful".
type WordDistance struct {
	// FromOpinions pairs each opinion to its nearest aspect when true;
	// otherwise each aspect to its nearest opinion.
	FromOpinions bool
}

// Name identifies the heuristic.
func (w WordDistance) Name() string {
	if w.FromOpinions {
		return "word_dist_op"
	}
	return "word_dist_as"
}

// Pairs maps each source span to the closest target span.
func (w WordDistance) Pairs(tokens []string, aspects, opinions []tokenize.Span) []Pair {
	return greedyPairs(aspects, opinions, w.FromOpinions, func(a, o tokenize.Span) float64 {
		return math.Abs(spanMid(a) - spanMid(o))
	})
}

// Tree is the first novel heuristic of §5.1: pair spans by distance in the
// sentence's constituency parse tree, so aspects prefer opinions inside
// their own clause/subtree.
type Tree struct {
	Lex postag.Lexicon
	// FromOpinions runs the opinions→aspects direction.
	FromOpinions bool
}

// Name identifies the labeling function (§6.4's lf_tree_as / lf_tree_op).
func (t Tree) Name() string {
	if t.FromOpinions {
		return "lf_tree_op"
	}
	return "lf_tree_as"
}

// Pairs maps each source span to the target with the smallest tree distance,
// breaking ties by word distance.
func (t Tree) Pairs(tokens []string, aspects, opinions []tokenize.Span) []Pair {
	tree := parse.Build(t.Lex, tokens)
	return greedyPairs(aspects, opinions, t.FromOpinions, func(a, o tokenize.Span) float64 {
		d := float64(tree.Distance(int(spanMid(a)), int(spanMid(o))))
		return d*1000 + math.Abs(spanMid(a)-spanMid(o))
	})
}

// Attention is the second novel heuristic of §5.1: a trained BERT's
// attention head acts as a no-training-required pairing classifier — each
// aspect attends most to its rightful opinion (Fig. 5). It reads the
// sentence's shared encoding.
type Attention struct {
	// Layer and Head select the attention matrix.
	Layer, Head int
	// Margin makes the head conservative: an aspect proposes a pair only
	// when its best opinion's attention beats the runner-up by this relative
	// margin. Conservative heads have the high-precision/low-recall profile
	// the paper reports for its labeling functions (§6.4). Zero disables.
	Margin float64
	// DisplayName, when set, overrides the generated lf_bert name — the
	// experiments use the paper's labels (lf_bert_7:10 etc.).
	DisplayName string
}

// Name identifies the labeling function.
func (a Attention) Name() string {
	if a.DisplayName != "" {
		return a.DisplayName
	}
	return lfBertName(a.Layer, a.Head)
}

func lfBertName(layer, head int) string {
	digits := func(n int) string {
		if n == 0 {
			return "0"
		}
		var b []byte
		for n > 0 {
			b = append([]byte{byte('0' + n%10)}, b...)
			n /= 10
		}
		return string(b)
	}
	return "lf_bert_" + digits(layer) + ":" + digits(head)
}

// Pairs maps each aspect to the opinion span holding the largest share of
// the aspect's attention mass in s's encoding.
func (a Attention) Pairs(s *Sentence, aspects, opinions []tokenize.Span) []Pair {
	if len(aspects) == 0 || len(opinions) == 0 {
		return nil
	}
	attn := s.Enc.Attention(a.Layer, a.Head)
	if attn == nil {
		return nil
	}
	var out []Pair
	for _, asp := range aspects {
		best, bestScore := opinions[0], math.Inf(-1)
		second := math.Inf(-1)
		for _, op := range opinions {
			score := attentionMass(attn, asp, op)
			if score > bestScore {
				second = bestScore
				best, bestScore = op, score
			} else if score > second {
				second = score
			}
		}
		if a.Margin > 0 && len(opinions) > 1 && bestScore < second*(1+a.Margin) {
			continue // ambiguous head reading: propose nothing for this aspect
		}
		out = append(out, Pair{Aspect: asp, Opinion: best})
	}
	return out
}

// attentionMass averages, over the aspect's token rows, the attention
// falling on the opinion's token columns (normalized by opinion length so
// long spans don't win by size).
func attentionMass(attn *mat.Mat, asp, op tokenize.Span) float64 {
	n := attn.Rows
	var total float64
	var rows int
	for i := asp.Start; i < asp.End && i < n; i++ {
		row := attn.Row(i)
		var mass float64
		var cols int
		for j := op.Start; j < op.End && j < len(row); j++ {
			mass += row[j]
			cols++
		}
		if cols > 0 {
			total += mass / float64(cols)
			rows++
		}
	}
	if rows == 0 {
		return math.Inf(-1)
	}
	return total / float64(rows)
}

// greedyPairs maps each source span (aspects, or opinions when fromOpinions)
// to the target minimizing cost.
func greedyPairs(aspects, opinions []tokenize.Span, fromOpinions bool, cost func(a, o tokenize.Span) float64) []Pair {
	if len(aspects) == 0 || len(opinions) == 0 {
		return nil
	}
	var out []Pair
	if fromOpinions {
		for _, op := range opinions {
			best, bestCost := aspects[0], math.Inf(1)
			for _, asp := range aspects {
				if c := cost(asp, op); c < bestCost {
					best, bestCost = asp, c
				}
			}
			out = append(out, Pair{Aspect: best, Opinion: op})
		}
		return out
	}
	for _, asp := range aspects {
		best, bestCost := opinions[0], math.Inf(1)
		for _, op := range opinions {
			if c := cost(asp, op); c < bestCost {
				best, bestCost = op, c
			}
		}
		out = append(out, Pair{Aspect: asp, Opinion: best})
	}
	return out
}

// LFFromHeuristic wraps a heuristic as a snorkel labeling function with the
// §5.2 interface: vote Positive when the candidate pair belongs to the
// heuristic's proposed set, Negative otherwise.
func LFFromHeuristic(h Heuristic) snorkel.LF[Candidate] {
	return proposalLF(h.Name(), snorkel.Negative, func(c Candidate) []Pair {
		return h.Pairs(c.Sent.Tokens, c.Aspects, c.Opinions)
	})
}

// LF wraps the head (each aspect picks at most one opinion) as a labeling
// function with abstention semantics: Positive when the pair is proposed,
// Abstain otherwise. An aspect-driven heuristic choosing a different opinion
// is not evidence *against* the candidate — one aspect can legitimately pair
// with several opinions (footnote 4) — so these labeling functions only ever
// contribute positive evidence. Abstention is what lets weak-but-precise
// labeling functions help the label model instead of drowning it (Snorkel
// [48]).
func (a Attention) LF() snorkel.LF[Candidate] {
	return proposalLF(a.Name(), snorkel.Abstain, func(c Candidate) []Pair {
		return a.Pairs(c.Sent, c.Aspects, c.Opinions)
	})
}

// proposalLF votes Positive on a candidate when pairs(c) holds its pair,
// and otherwise when it does not.
func proposalLF(name string, otherwise snorkel.Vote, pairs func(Candidate) []Pair) snorkel.LF[Candidate] {
	return snorkel.LF[Candidate]{
		Name: name,
		Apply: func(c Candidate) snorkel.Vote {
			if c.proposedIn(pairs(c)) {
				return snorkel.Positive
			}
			return otherwise
		},
	}
}
