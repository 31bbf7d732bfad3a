package core

import (
	"math/rand"

	"saccs/internal/bert"
	"saccs/internal/corpus"
	"saccs/internal/datasets"
	"saccs/internal/lexicon"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
)

// EncoderOpts sizes a MiniBERT encoder and its masked-language-model training.
type EncoderOpts struct {
	Cfg         bert.Config
	GeneralSize int
	MLM         bert.MLMConfig
	Seed        int64
	// Obs, when non-nil, is attached to the encoder before MLM training so
	// pre-training epochs and later Encode calls are instrumented.
	Obs *obs.Observer
}

// EncoderOptsFor returns the per-scale encoder options every pipeline in the
// repository trains with: the served one (TrainTagger) and the paper
// experiments' plain and domain-adapted variants.
func EncoderOptsFor(scale datasets.Scale) EncoderOpts {
	mlm := bert.DefaultMLMConfig()
	size := 200
	if scale == datasets.Paper {
		size = 1200
		mlm.Epochs = 4
	} else {
		mlm.Epochs = 2
	}
	return EncoderOpts{Cfg: bert.DefaultConfig(), GeneralSize: size, MLM: mlm, Seed: 11}
}

// BuildEncoder pre-trains a MiniBERT on the general corpus and — when
// domainCorpus is non-empty — post-trains it on the domain reviews (§4.2's
// domain-knowledge step). The vocabulary covers the general corpus, the
// domain lexicon, and every provided sentence.
func BuildEncoder(opts EncoderOpts, domain *lexicon.Domain, domainCorpus [][]string) *bert.Model {
	genRng := rand.New(rand.NewSource(opts.Seed))
	general := corpus.GeneralCorpus(genRng, opts.GeneralSize)

	vocab := tokenize.NewVocab()
	vocab.AddAll(corpus.GeneralVocabulary())
	vocab.AddAll(corpus.FunctionWords())
	if domain != nil {
		for _, f := range domain.Features {
			for _, v := range append(append(append([]string{}, f.AspectSyns...), f.PosOps...), f.NegOps...) {
				vocab.AddAll(tokenize.Words(v))
			}
		}
	}
	for _, s := range domainCorpus {
		vocab.AddAll(s)
	}

	m := bert.New(rand.New(rand.NewSource(opts.Seed+1)), opts.Cfg, vocab)
	m.SetObserver(opts.Obs)
	m.TrainMLM(rand.New(rand.NewSource(opts.Seed+2)), general, opts.MLM)
	if len(domainCorpus) > 0 {
		// Post-training gets a longer run than the general phase when the
		// domain corpus is small — the domain corpus is the knowledge being
		// added (§4.2). Large corpora already provide enough steps per epoch.
		domainMLM := opts.MLM
		if len(domainCorpus) < 500 {
			domainMLM.Epochs *= 3
		}
		m.TrainMLM(rand.New(rand.NewSource(opts.Seed+3)), domainCorpus, domainMLM)
	}
	return m
}

// Tokens projects dataset examples onto their token sequences (the MLM
// post-training corpus).
func Tokens(examples []datasets.Example) [][]string {
	out := make([][]string, len(examples))
	for i, ex := range examples {
		out[i] = ex.Tokens
	}
	return out
}

// TrainTagger trains the served tagger: a MiniBERT pre-trained at the scale's
// size and post-trained on data's training sentences (§4.2), under a
// BiLSTM-CRF trained on data.Train for the scale's epochs — FGSM-perturbed at
// radius epsilon when adversarial is set (§4.3). precision is the arithmetic
// Predict serves at; training always runs float64. o, when non-nil,
// instruments encoder and tagger training and inference. Training is
// deterministic: equal arguments give bit-identical weights.
func TrainTagger(domain *lexicon.Domain, data *datasets.Dataset, scale datasets.Scale, adversarial bool, epsilon float64, precision nn.Precision, o *obs.Observer) *tagger.Model {
	opts := EncoderOptsFor(scale)
	opts.Obs = o
	enc := BuildEncoder(opts, domain, Tokens(data.Train))
	cfg := tagger.DefaultConfig()
	if scale == datasets.Paper {
		cfg.Epochs = 15
	}
	cfg.Adversarial = adversarial
	cfg.Epsilon = epsilon
	cfg.Precision = precision
	tg := tagger.New(enc, cfg)
	tg.Obs = o
	tg.Train(data.Train)
	return tg
}

// ServedPairer is the §5.1 pairing heuristic the served pipeline pairs
// aspects and opinions with: parse-tree distance over the domain lexicon,
// walking from each opinion.
func ServedPairer(domain *lexicon.Domain) pairing.Tree {
	return pairing.Tree{Lex: parse.DomainLexicon(domain), FromOpinions: true}
}
