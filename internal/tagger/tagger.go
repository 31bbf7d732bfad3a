// Package tagger implements the SACCS extractor of §4: the token tagging
// model that labels each word of a sentence as B-AS/I-AS/B-OP/I-OP/O.
//
//   - Model is the paper's architecture (Fig. 3): frozen BERT contextual
//     embeddings → dropout → BiLSTM → linear projection → linear-chain CRF,
//     decoded with Viterbi (§4.1).
//   - Adversarial training (Fig. 4, §4.3) mixes the clean loss with a loss
//     on FGSM-perturbed embeddings: Min_θ [α·l(h(x),y) + (1−α)·l(h(x+δ*),y)]
//     with δ* = ε·sign(∇δ l) on the l∞ ball (Eq. 6–9).
//   - OpineDB is the baseline of §6.3 / Table 4 [31]: the same frozen BERT
//     embeddings with a per-token softmax classifier and no CRF.
//
// Domain adaptation (§4.2) happens upstream: pass an encoder post-trained on
// domain reviews (bert.Model.TrainMLM) to either constructor.
package tagger

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"saccs/internal/datasets"
	"saccs/internal/mat"
	"saccs/internal/metrics"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/tokenize"
)

// Encoder supplies frozen contextual embeddings; *bert.Model satisfies it.
type Encoder interface {
	EncodeTokens(tokens []string) []mat.Vec
	EmbeddingDim() int
}

// ArenaEncoder is an encoder with a reentrant float64 inference forward over
// one sequence, a token per row, every buffer carved from the caller's
// arena; *bert.Model satisfies it. Predict runs on it so any number of
// goroutines can tag concurrently and a warm decode allocates nothing but
// its labels. Train always uses EncodeTokens — fine-tuning needs the
// encoder's caches — and so does inference over an encoder without this
// forward (see encode).
type ArenaEncoder interface {
	InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat
}

// QuantEncoder is an encoder with a reduced-precision inference forward in
// the same layout; *bert.Model satisfies it. When the tagger's encoder
// implements it, a decode at nn.Mixed routes the whole pipeline — encoder,
// BiLSTM, projection — through the float32/int8 kernels, with only the CRF
// Viterbi staying float64. Encoders without it decode at float64, so Mixed
// is always safe to request.
type QuantEncoder interface {
	InferQuantTokensArena(tokens []string, a *nn.Arena) *mat.Mat32
}

// TrainableEncoder is an encoder the tagger can fine-tune end-to-end;
// *bert.Model satisfies it. Fine-tuning on the tagging task is what makes
// BERT's attention heads align aspects with opinions (§5.1: "we have it
// already trained on aspect/opinion extraction").
type TrainableEncoder interface {
	Encoder
	Backward(dhs []mat.Vec) []mat.Vec
	EncoderParams() []*nn.Param
}

// Config tunes tagger training.
type Config struct {
	// Hidden is the BiLSTM hidden size per direction.
	Hidden int
	// LR is the Adam learning rate.
	LR float64
	// Epochs over the training set (paper: 15).
	Epochs int
	// Dropout probability on the encoder outputs.
	Dropout float64
	// ClipNorm bounds the global gradient norm.
	ClipNorm float64
	// Adversarial enables FGSM training (§4.3).
	Adversarial bool
	// Epsilon is the l∞ perturbation radius ε (Table 4 sweeps
	// {0.1, 0.2, 0.5, 1.0, 2.0}).
	Epsilon float64
	// Alpha weighs the clean loss against the adversarial loss (paper: 0.5).
	Alpha float64
	// FineTuneEncoder backpropagates the tagging loss into the encoder when
	// it is trainable (§5.1's prerequisite for the attention pairing
	// heuristic). With Adversarial set, only the clean branch updates the
	// encoder — the FGSM input is a synthetic embedding the encoder never
	// produced.
	FineTuneEncoder bool
	// EncoderLR is the encoder's learning rate during fine-tuning
	// (default LR/10, the usual BERT-fine-tuning convention).
	EncoderLR float64
	// Seed drives parameter init and dropout.
	Seed int64
	// Precision selects Predict's arithmetic (nn.Float64 or nn.Mixed). The
	// zero value is nn.Float64 — the exact reference path; nn.Mixed
	// dispatches to the int8/float32 inference kernels when the encoder
	// supports them (see QuantEncoder). Training is always float64
	// regardless.
	Precision nn.Precision
}

// DefaultConfig returns the training recipe used across the reproduction.
func DefaultConfig() Config {
	return Config{
		Hidden:   32,
		LR:       2e-3,
		Epochs:   5,
		Dropout:  0.1,
		ClipNorm: 5,
		Alpha:    0.5,
		Seed:     1,
	}
}

// genCounter hands out process-unique weight generations. Every freshly
// built tagger and every (re)training epoch boundary draws a new value, so
// two distinct weight states never share a generation — the invariant the
// extraction cache's generation keying rests on.
var genCounter atomic.Uint64

func nextGen() uint64 { return genCounter.Add(1) }

// arenaPool recycles decode arenas across Predict calls and goroutines.
// After each arena's first few decodes it has seen peak demand and Predict
// stops allocating.
var arenaPool = sync.Pool{New: func() any { return new(nn.Arena) }}

// Model is the SACCS tagging architecture of Fig. 3.
type Model struct {
	enc    Encoder
	drop   *nn.Dropout
	bilstm *nn.BiLSTM
	proj   *nn.Linear
	crf    *nn.CRF
	cfg    Config
	gen    atomic.Uint64

	// Obs, when set before Train/Predict, records per-epoch training
	// duration and loss plus per-call Viterbi decode latency. Nil (the
	// default) costs a single branch per call.
	Obs *obs.Observer
}

// New builds an untrained tagger over a (frozen) encoder.
func New(enc Encoder, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{
		enc:    enc,
		drop:   nn.NewDropout(rng, cfg.Dropout),
		bilstm: nn.NewBiLSTM(rng, "tagger.bilstm", enc.EmbeddingDim(), cfg.Hidden),
		cfg:    cfg,
	}
	m.proj = nn.NewLinear(rng, "tagger.proj", m.bilstm.OutDim(), int(tokenize.NumLabels))
	m.crf = nn.NewCRF(rng, "tagger.crf", int(tokenize.NumLabels))
	m.crf.SetConstraints(
		func(a, b int) bool { return tokenize.ValidTransition(tokenize.Label(a), tokenize.Label(b)) },
		func(l int) bool { return tokenize.ValidStart(tokenize.Label(l)) },
	)
	m.gen.Store(nextGen())
	return m
}

// Generation identifies the current weight state. It changes whenever the
// weights may have changed — on construction and at both the start and end
// of Train, so results computed while a retrain is in flight are never
// attributed to a servable generation. Callers (the extraction cache) treat
// equal generations as "bit-identical weights".
func (m *Model) Generation() uint64 { return m.gen.Load() }

// Encoder returns the encoder the tagger reads its embeddings from.
func (m *Model) Encoder() Encoder { return m.enc }

// Params returns the trainable tensors (the encoder stays frozen).
func (m *Model) Params() []*nn.Param {
	ps := m.bilstm.Params()
	ps = append(ps, m.proj.Params()...)
	return append(ps, m.crf.Params()...)
}

// forwardLoss runs embeddings → BiLSTM → proj → CRF, accumulates parameter
// gradients, and returns (loss, gradient w.r.t. the embeddings). The clean
// and adversarial branches are mixed by the caller via gradient snapshots.
func (m *Model) forwardLoss(embeds []mat.Vec, gold []int) (float64, []mat.Vec) {
	dropped, masks := m.drop.ForwardSeq(embeds)
	hs, cache := m.bilstm.Forward(dropped)
	emissions := m.proj.ForwardSeq(hs)
	loss, dE := m.crf.NLL(emissions, gold)
	dHs := m.proj.BackwardSeq(hs, dE)
	dDropped := m.bilstm.Backward(cache, dHs)
	return loss, m.drop.BackwardSeq(dDropped, masks)
}

// gradBuffers returns one buffer shaped like each parameter's gradient: the
// clean branch's gradient snapshot, reused by every step of a Train call.
func gradBuffers(params []*nn.Param) [][]float64 {
	bufs := make([][]float64, len(params))
	for i, p := range params {
		bufs[i] = make([]float64, len(p.G.Data))
	}
	return bufs
}

// trainStep processes one example, with or without the adversarial branch,
// and applies the optimizer to params (m.Params()); clean (gradBuffers)
// receives the clean branch's gradients. When encBack is non-nil it
// receives the combined gradient with respect to the input embeddings so
// the caller can fine-tune the encoder.
func (m *Model) trainStep(opt nn.Optimizer, params []*nn.Param, clean [][]float64, embeds []mat.Vec, gold []int, encBack func([]mat.Vec)) float64 {
	if !m.cfg.Adversarial {
		nn.ZeroGrads(params)
		loss, dEmbeds := m.forwardLoss(embeds, gold)
		nn.ClipGrads(params, m.cfg.ClipNorm)
		opt.Step(params)
		if encBack != nil {
			encBack(dEmbeds)
		}
		return loss
	}
	alpha := m.cfg.Alpha
	// Clean pass: also yields ∇x l for the FGSM direction (Eq. 9's g).
	nn.ZeroGrads(params)
	cleanLoss, dEmbeds := m.forwardLoss(embeds, gold)
	for i, p := range params {
		copy(clean[i], p.G.Data)
	}

	// Adversarial example: x + ε·sign(g) (Eq. 7–9), formed in δ*'s own
	// buffer (float addition commutes exactly).
	adv := nn.FGSMSeq(dEmbeds, m.cfg.Epsilon)
	for i, e := range embeds {
		adv[i].Add(e)
	}
	nn.ZeroGrads(params)
	advLoss, dEmbedsAdv := m.forwardLoss(adv, gold)

	// Combine: grad = α·clean + (1−α)·adv (Eq. 8).
	for pi, p := range params {
		for i := range p.G.Data {
			p.G.Data[i] = alpha*clean[pi][i] + (1-alpha)*p.G.Data[i]
		}
	}
	nn.ClipGrads(params, m.cfg.ClipNorm)
	opt.Step(params)
	if encBack != nil {
		// δ* is a constant w.r.t. x, so the adversarial branch's embedding
		// gradient flows straight through x + δ*.
		combined := make([]mat.Vec, len(dEmbeds))
		for i := range dEmbeds {
			v := dEmbeds[i].Clone()
			v.Scale(alpha)
			v.AddScaled(1-alpha, dEmbedsAdv[i])
			combined[i] = v
		}
		encBack(combined)
	}
	return alpha*cleanLoss + (1-alpha)*advLoss
}

// Train fits the tagger on the examples and returns the mean loss of the
// final epoch. With a frozen encoder its embeddings are computed once and
// cached; with FineTuneEncoder they are recomputed per step and the tagging
// loss flows back into the encoder at EncoderLR.
func (m *Model) Train(examples []datasets.Example) float64 {
	// Bump the generation before touching any weight and again after the
	// last update: a Predict that overlaps Train sees different generations
	// before and after its forward pass, so its result is never cached.
	m.gen.Store(nextGen())
	defer m.gen.Store(nextGen())
	opt := nn.NewAdam(m.cfg.LR)
	params := m.Params()
	clean := gradBuffers(params)
	m.drop.Train = true

	te, ok := m.enc.(TrainableEncoder)
	fineTune := ok && m.cfg.FineTuneEncoder
	var encOpt nn.Optimizer
	var encParams []*nn.Param
	if fineTune {
		lr := m.cfg.EncoderLR
		if lr == 0 {
			lr = m.cfg.LR / 10
		}
		encOpt = nn.NewAdam(lr)
		encParams = te.EncoderParams()
	}

	var cached [][]mat.Vec
	golds := make([][]int, len(examples))
	if !fineTune {
		cached = make([][]mat.Vec, len(examples))
		for i, ex := range examples {
			cached[i] = m.enc.EncodeTokens(ex.Tokens)
			golds[i] = goldIDs(ex.Labels, len(cached[i]))
		}
	}

	var last float64
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	shuffle := rand.New(rand.NewSource(m.cfg.Seed + 7))
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		var epochStart time.Time
		if m.Obs != nil {
			epochStart = time.Now()
		}
		shuffle.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var total float64
		var n int
		for _, idx := range order {
			var embeds []mat.Vec
			var gold []int
			if fineTune {
				embeds = m.enc.EncodeTokens(examples[idx].Tokens)
				gold = goldIDs(examples[idx].Labels, len(embeds))
			} else {
				embeds, gold = cached[idx], golds[idx]
			}
			if len(embeds) == 0 {
				continue
			}
			var encBack func([]mat.Vec)
			if fineTune {
				encBack = func(dEmbeds []mat.Vec) {
					nn.ZeroGrads(encParams)
					te.Backward(dEmbeds)
					nn.ClipGrads(encParams, m.cfg.ClipNorm)
					encOpt.Step(encParams)
				}
			}
			total += m.trainStep(opt, params, clean, embeds, gold, encBack)
			n++
		}
		if n > 0 {
			last = total / float64(n)
		}
		if m.Obs != nil {
			m.Obs.Histogram("tagger.train.epoch").ObserveSince(epochStart)
			m.Obs.Gauge("tagger.train.loss").Set(last)
			m.Obs.Counter("tagger.train.epochs.total").Inc()
		}
	}
	m.drop.Train = false
	return last
}

func goldIDs(labels []tokenize.Label, n int) []int {
	if n > len(labels) {
		n = len(labels)
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[i] = int(labels[i])
	}
	return out
}

// encode runs the encoder's float64 inference forward over one sentence and
// returns its embeddings, a row per (truncated) token. An encoder that only
// implements EncodeTokens (the hash encoders of the tests and oracles) has
// its vectors copied into the same rows rather than given a pipeline of its
// own; it must return at most one vector per token.
func encode(enc Encoder, tokens []string, a *nn.Arena) *mat.Mat {
	if ae, ok := enc.(ArenaEncoder); ok {
		return ae.InferTokensArena(tokens, a)
	}
	vs := enc.EncodeTokens(tokens)
	x := a.MatRaw(len(vs), enc.EmbeddingDim())
	for i, v := range vs {
		copy(x.Row(i), v)
	}
	return x
}

// emissions is the forward up to the CRF — encoder, BiLSTM, projection — at
// the given precision, as float64 emission rows, one per (truncated) token.
// At nn.Mixed (over a QuantEncoder) the three stages run on the
// reduced-precision kernels and the float32 emissions are widened, exactly,
// for the float64 Viterbi.
func (m *Model) emissions(tokens []string, a *nn.Arena, p nn.Precision) *mat.Mat {
	if qe, ok := m.enc.(QuantEncoder); ok && p == nn.Mixed {
		embeds := qe.InferQuantTokensArena(tokens, a)
		e32 := m.proj.InferF32Batch(m.bilstm.InferQuantBatch(embeds, a), a)
		em := a.MatRaw(e32.Rows, e32.Cols)
		for i, v := range e32.Data {
			em.Data[i] = float64(v)
		}
		return em
	}
	return m.proj.InferBatch(m.bilstm.InferBatch(encode(m.enc, tokens, a), a), a)
}

// Predict tags a sentence with Viterbi decoding at the configured precision.
// Tokens beyond the encoder's window fall back to O. Predict is reentrant —
// it writes no model state and neither does the encoder's inference forward
// — so concurrent goroutines may call it on one trained model.
func (m *Model) Predict(tokens []string) []tokenize.Label {
	return m.PredictAt(tokens, m.cfg.Precision)
}

// PredictAt is the decode, at an explicit precision independent of the
// configured mode — how index builds (ReferenceView), the quant-drift oracle
// and the benchmarks decode at float64 and mixed on one model without
// mutating it. One pooled arena is threaded through the inference forward
// (emissions) and the Viterbi decode, so a warm call allocates only the
// labels it returns. The float64 forward executes the training Forward's
// float operations in the same order, so its labels are bit-for-bit the
// training pipeline's.
func (m *Model) PredictAt(tokens []string, p nn.Precision) []tokenize.Label {
	if m.Obs != nil {
		defer m.Obs.Histogram("tagger.predict").ObserveSince(time.Now())
	}
	a := arenaPool.Get().(*nn.Arena)
	a.Reset()
	em := m.emissions(tokens, a, p)
	out := make([]tokenize.Label, len(tokens))
	rows := a.Seq(em.Rows)
	for t := range rows {
		rows[t] = em.Row(t)
	}
	for i, l := range m.crf.DecodeArena(rows, a) {
		out[i] = tokenize.Label(l)
	}
	arenaPool.Put(a)
	return out
}

// Evaluate computes exact-match chunk P/R/F1 on a test set (§6.3).
func (m *Model) Evaluate(test []datasets.Example) metrics.PRF {
	gold := make([][]tokenize.Label, len(test))
	pred := make([][]tokenize.Label, len(test))
	for i, ex := range test {
		gold[i] = ex.Labels
		pred[i] = m.Predict(ex.Tokens)
	}
	return metrics.ChunkPRF(gold, pred)
}

// OpineDB is the §6.3 baseline tagger [31]: frozen BERT embeddings with a
// per-token softmax classifier (no BiLSTM, no CRF, no adversarial branch).
type OpineDB struct {
	enc  Encoder
	proj *nn.Linear
	cfg  Config
	gen  atomic.Uint64
}

// NewOpineDB builds the baseline over a (frozen) encoder.
func NewOpineDB(enc Encoder, cfg Config) *OpineDB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := &OpineDB{
		enc:  enc,
		proj: nn.NewLinear(rng, "opinedb.proj", enc.EmbeddingDim(), int(tokenize.NumLabels)),
		cfg:  cfg,
	}
	o.gen.Store(nextGen())
	return o
}

// Generation identifies the current weight state (see Model.Generation).
func (o *OpineDB) Generation() uint64 { return o.gen.Load() }

// Train fits the classifier and returns the final epoch's mean loss.
func (o *OpineDB) Train(examples []datasets.Example) float64 {
	o.gen.Store(nextGen())
	defer o.gen.Store(nextGen())
	opt := nn.NewAdam(o.cfg.LR)
	params := o.proj.Params()
	var last float64
	for epoch := 0; epoch < o.cfg.Epochs; epoch++ {
		var total float64
		var n int
		for _, ex := range examples {
			embeds := o.enc.EncodeTokens(ex.Tokens)
			if len(embeds) == 0 {
				continue
			}
			gold := goldIDs(ex.Labels, len(embeds))
			nn.ZeroGrads(params)
			var loss float64
			for i, e := range embeds {
				logits := o.proj.Forward(e)
				l, dLogits := nn.SoftmaxCE(logits, gold[i])
				loss += l
				o.proj.Backward(e, dLogits)
			}
			nn.ClipGrads(params, o.cfg.ClipNorm)
			opt.Step(params)
			total += loss / float64(len(embeds))
			n++
		}
		if n > 0 {
			last = total / float64(n)
		}
	}
	return last
}

// Predict tags each token independently by argmax. Reentrant under the same
// conditions as Model.Predict.
func (o *OpineDB) Predict(tokens []string) []tokenize.Label {
	a := arenaPool.Get().(*nn.Arena)
	a.Reset()
	embeds := encode(o.enc, tokens, a)
	out := make([]tokenize.Label, len(tokens))
	for i := 0; i < embeds.Rows; i++ {
		out[i] = tokenize.Label(o.proj.Forward(embeds.Row(i)).MaxIdx())
	}
	arenaPool.Put(a)
	return out
}

// Evaluate computes exact-match chunk P/R/F1 on a test set.
func (o *OpineDB) Evaluate(test []datasets.Example) metrics.PRF {
	gold := make([][]tokenize.Label, len(test))
	pred := make([][]tokenize.Label, len(test))
	for i, ex := range test {
		gold[i] = ex.Labels
		pred[i] = o.Predict(ex.Tokens)
	}
	return metrics.ChunkPRF(gold, pred)
}
