package pairing

import (
	"math/rand"
	"slices"
	"sort"

	"saccs/internal/bert"
	"saccs/internal/datasets"
	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/parse"
	"saccs/internal/postag"
	"saccs/internal/snorkel"
)

// ClassifierConfig tunes the discriminative pairing model.
type ClassifierConfig struct {
	// Hidden is the width of the sigmoid hidden layer.
	Hidden int
	// LR is the Adam learning rate.
	LR float64
	// Epochs over the generated training set.
	Epochs int
	// Seed drives initialization and shuffling.
	Seed int64
}

// DefaultClassifierConfig returns the recipe used across the reproduction.
func DefaultClassifierConfig() ClassifierConfig {
	return ClassifierConfig{Hidden: 48, LR: 5e-3, Epochs: 10, Seed: 3}
}

// Classifier is the §5.2 discriminative model: a two-layer neural network
// with a sigmoid activation over BERT encodings of the sentence s_i and the
// candidate phrase p_i (realized as the sentence encoding plus the
// contextual vectors of the candidate's aspect and opinion spans), together
// with span geometry and shallow-parse structure — the signal a full BERT
// cross-encoder would carry in its attention. It reads both from the
// candidate's shared Sentence.
type Classifier struct {
	dim    int
	l1, l2 *nn.Linear
	cfg    ClassifierConfig
}

// positionalFeatures is the number of scalar span-geometry and parse
// features appended to the embedding features.
const positionalFeatures = 6

// NewClassifier builds an untrained pairing classifier over encoder rows
// dim wide.
func NewClassifier(dim int, cfg ClassifierConfig) *Classifier {
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := dim*3 + positionalFeatures
	return &Classifier{
		dim: dim,
		l1:  nn.NewLinear(rng, "pairing.l1", in, cfg.Hidden),
		l2:  nn.NewLinear(rng, "pairing.l2", cfg.Hidden, 1),
		cfg: cfg,
	}
}

// features encodes [sentence-mean ; aspect-span-mean ; opinion-span-mean ;
// span geometry]. The geometry block (normalized distance, order, adjacency,
// competing-span pressure) gives the network the positional signal a full
// BERT cross-encoder would carry in its attention.
func (c *Classifier) features(cand Candidate) mat.Vec {
	hs := cand.Sent.Enc.Rows
	dim := c.dim
	out := mat.NewVec(3*dim + positionalFeatures)
	if hs.Rows == 0 {
		return out
	}
	pool := func(dst mat.Vec, start, end int) {
		n := 0
		for i := start; i < end && i < hs.Rows; i++ {
			if i < 0 {
				continue
			}
			dst.Add(hs.Row(i))
			n++
		}
		if n > 0 {
			dst.Scale(1 / float64(n))
		}
	}
	pool(out[:dim], 0, hs.Rows)
	pool(out[dim:2*dim], cand.Aspect.Start, cand.Aspect.End)
	pool(out[2*dim:3*dim], cand.Opinion.Start, cand.Opinion.End)

	n := float64(len(cand.Sent.Tokens))
	dist := spanMid(cand.Aspect) - spanMid(cand.Opinion)
	if dist < 0 {
		dist = -dist
	}
	out[3*dim] = dist / n
	if cand.Aspect.Start < cand.Opinion.Start {
		out[3*dim+1] = 1 // aspect precedes opinion
	}
	// Is a competing opinion strictly between the candidate spans? That is
	// the telltale of a wrong long-range pair.
	lo, hi := cand.Aspect.End, cand.Opinion.Start
	if cand.Opinion.End <= cand.Aspect.Start {
		lo, hi = cand.Opinion.End, cand.Aspect.Start
	}
	for _, op := range cand.Opinions {
		if op != cand.Opinion && op.Start >= lo && op.End <= hi {
			out[3*dim+2] = 1
			break
		}
	}
	for _, asp := range cand.Aspects {
		if asp != cand.Aspect && asp.Start >= lo && asp.End <= hi {
			out[3*dim+3] = 1
			break
		}
	}
	// Shallow-parse structure: normalized tree distance and same-clause flag.
	tree := cand.Sent.Tree
	ai := int(spanMid(cand.Aspect))
	oi := int(spanMid(cand.Opinion))
	d := tree.Distance(ai, oi)
	if d > 20 {
		d = 20
	}
	out[3*dim+4] = float64(d) / 20
	if tree.SameClause(ai, oi) {
		out[3*dim+5] = 1
	}
	return out
}

// forward returns the pre-sigmoid logit and the hidden activation cache.
func (c *Classifier) forward(x mat.Vec) (float64, mat.Vec, mat.Vec) {
	pre := c.l1.Forward(x)
	h := nn.SigmoidVec(pre)
	logit := c.l2.Forward(h)[0]
	return logit, pre, h
}

// Params returns the trainable tensors.
func (c *Classifier) Params() []*nn.Param {
	return append(c.l1.Params(), c.l2.Params()...)
}

// Train fits the classifier on candidates with (possibly probabilistic)
// labels in [0,1] and returns the final epoch's mean loss.
func (c *Classifier) Train(cands []Candidate, labels []float64) float64 {
	opt := nn.NewAdam(c.cfg.LR)
	params := c.Params()
	feats := make([]mat.Vec, len(cands))
	for i, cand := range cands {
		feats[i] = c.features(cand)
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	shuffle := rand.New(rand.NewSource(c.cfg.Seed + 11))
	var last float64
	for epoch := 0; epoch < c.cfg.Epochs; epoch++ {
		shuffle.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		for _, idx := range order {
			x := feats[idx]
			nn.ZeroGrads(params)
			logit, _, h := c.forward(x)
			loss, _, dLogit := nn.BCELogit(logit, labels[idx])
			dH := c.l2.Backward(h, mat.Vec{dLogit})
			dPre := mat.NewVec(len(h))
			for i := range h {
				dPre[i] = dH[i] * h[i] * (1 - h[i])
			}
			c.l1.Backward(x, dPre)
			nn.ClipGrads(params, 5)
			opt.Step(params)
			total += loss
		}
		if len(order) > 0 {
			last = total / float64(len(order))
		}
	}
	return last
}

// Predict returns the positive-class probability for a candidate.
func (c *Classifier) Predict(cand Candidate) float64 {
	logit, _, _ := c.forward(c.features(cand))
	return mat.Sigmoid(logit)
}

// Candidates returns one candidate per example. Each run of consecutive
// examples with equal Tokens — one sentence's candidates, which
// datasets.EnumeratePairs and datasets.PairingBenchmark emit together —
// shares one Sentence: a single forward of enc and a single parse with lex.
func Candidates(enc *bert.Model, lex postag.Lexicon, exs []datasets.PairingExample) []Candidate {
	out := make([]Candidate, len(exs))
	var a nn.Arena
	var s *Sentence
	for i, ex := range exs {
		if s == nil || !slices.Equal(s.Tokens, ex.Tokens) {
			a.Reset()
			s = newSentence(enc.InferAttentionArena(ex.Tokens, &a), parse.Build(lex, ex.Tokens), ex.Tokens)
		}
		out[i] = Candidate{
			Sent:     s,
			Aspects:  ex.Aspects,
			Opinions: ex.Opinions,
			Aspect:   ex.Aspect,
			Opinion:  ex.Opinion,
		}
	}
	return out
}

// DefaultAttentionMargin is the conservatism the standard attention LFs use
// (§6.4 precision profile).
const DefaultAttentionMargin = 0.15

// HeadScore records a (layer, head) candidate's dev accuracy.
type HeadScore struct {
	Layer, Head int
	Accuracy    float64
}

// SelectHeads performs the paper's "qualitative analysis" (§5.2): it scores
// every attention head of the encoder by pairing accuracy on a small labeled
// dev set (gold[i] labels dev[i]) and returns the k best, ordered by
// accuracy. Each head reads the dev sentences' shared encodings; an empty
// dev set selects nothing.
func SelectHeads(dev []Candidate, gold []bool, k int) []HeadScore {
	if len(dev) == 0 {
		return nil
	}
	shape := dev[0].Sent.Enc
	var scores []HeadScore
	for layer := range shape.Attn {
		for head := 0; head < shape.Heads; head++ {
			h := Attention{Layer: layer, Head: head, Margin: DefaultAttentionMargin}
			correct := 0
			for i, c := range dev {
				if c.proposedIn(h.Pairs(c.Sent, c.Aspects, c.Opinions)) == gold[i] {
					correct++
				}
			}
			acc := float64(correct) / float64(len(dev))
			scores = append(scores, HeadScore{Layer: layer, Head: head, Accuracy: acc})
		}
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].Accuracy != scores[j].Accuracy {
			return scores[i].Accuracy > scores[j].Accuracy
		}
		if scores[i].Layer != scores[j].Layer {
			return scores[i].Layer < scores[j].Layer
		}
		return scores[i].Head < scores[j].Head
	})
	if len(scores) > k {
		scores = scores[:k]
	}
	return scores
}

// StandardLFs builds the paper's seven labeling functions (§5.2): the two
// parse-tree LFs plus the five best attention heads, optionally renamed with
// the paper's display labels (lf_bert_7:10, ...).
func StandardLFs(lex postag.Lexicon, heads []HeadScore, displayNames []string) []snorkel.LF[Candidate] {
	lfs := []snorkel.LF[Candidate]{
		LFFromHeuristic(Tree{Lex: lex, FromOpinions: false}),
		LFFromHeuristic(Tree{Lex: lex, FromOpinions: true}),
	}
	for i, hs := range heads {
		name := ""
		if i < len(displayNames) {
			name = displayNames[i]
		}
		lfs = append(lfs, Attention{
			Layer: hs.Layer, Head: hs.Head, Margin: DefaultAttentionMargin,
			DisplayName: name,
		}.LF())
	}
	return lfs
}
