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
// InferTokensArena is its reentrant float64 inference forward over one
// sentence: it returns at most one row per token (an encoder with a shorter
// window truncates), every buffer carved from the caller's arena, and
// writes no encoder state. Predict and a frozen encoder's training
// embeddings run on it, so any number of goroutines can tag concurrently and
// a warm decode allocates nothing but its labels.
type Encoder interface {
	InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat
	EmbeddingDim() int
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
// *bert.Model satisfies it: EncodeTokens runs the inference forward on the
// encoder's own tape and returns its rows, and Backward consumes that tape,
// once per EncodeTokens, reading a gradient row per token.
// Fine-tuning on the tagging task is what makes BERT's attention heads
// align aspects with opinions (§5.1: "we have it already trained on
// aspect/opinion extraction").
type TrainableEncoder interface {
	Encoder
	EncodeTokens(tokens []string) *mat.Mat
	Backward(d *mat.Mat) *mat.Mat
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

// forwardLoss runs embeddings → dropout → BiLSTM → proj → CRF on the tape,
// backpropagates, accumulating parameter gradients, and returns (loss,
// gradient w.r.t. the embeddings). The clean and adversarial branches are
// mixed by the caller via gradient snapshots.
func (m *Model) forwardLoss(t *nn.Tape, embeds *mat.Mat, gold []int) (float64, *mat.Mat) {
	a := &t.Arena
	dropped := m.drop.Forward(embeds, a, t)
	emissions := m.proj.ForwardRows(m.bilstm.Forward(dropped, a, t), a, t)
	loss, dE := m.crf.NLL(emissions, gold, a)
	return loss, m.drop.Backward(t, m.bilstm.Backward(t, m.proj.BackwardRows(t, dE)))
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

// trainStep processes one example, its embeddings a row per token of x, on
// the tape t (reset here, so x must not come from it), with or without the
// adversarial branch, and applies the optimizer to params (m.Params());
// clean (gradBuffers) receives the clean branch's gradients. When encBack is
// non-nil it receives the combined gradient with respect to the input
// embeddings so the caller can fine-tune the encoder.
func (m *Model) trainStep(t *nn.Tape, opt nn.Optimizer, params []*nn.Param, clean [][]float64, x *mat.Mat, gold []int, encBack func(*mat.Mat)) float64 {
	t.Reset()
	if !m.cfg.Adversarial {
		nn.ZeroGrads(params)
		loss, dEmbeds := m.forwardLoss(t, x, gold)
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
	cleanLoss, dEmbeds := m.forwardLoss(t, x, gold)
	for i, p := range params {
		copy(clean[i], p.G.Data)
	}

	// Adversarial example: δ* + x (Eq. 7–9; float addition commutes
	// exactly).
	adv := nn.FGSM(dEmbeds, m.cfg.Epsilon, &t.Arena)
	mat.Vec(adv.Data).Add(x.Data)
	nn.ZeroGrads(params)
	advLoss, dEmbedsAdv := m.forwardLoss(t, adv, gold)

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
		combined := mat.Vec(dEmbeds.Data)
		combined.Scale(alpha)
		combined.AddScaled(1-alpha, dEmbedsAdv.Data)
		encBack(dEmbeds)
	}
	return alpha*cleanLoss + (1-alpha)*advLoss
}

// Train fits the tagger on the examples and returns the mean loss of the
// final epoch. With a frozen encoder its embeddings are computed once, by
// the encoder's inference forward, and cached; with FineTuneEncoder they are
// recomputed per step and the tagging loss flows back into the encoder at
// EncoderLR.
func (m *Model) Train(examples []datasets.Example) float64 {
	// Bump the generation before touching any weight and again after the
	// last update: a Predict that overlaps Train sees different generations
	// before and after its forward pass, so its result is never cached.
	m.gen.Store(nextGen())
	defer m.gen.Store(nextGen())
	opt := nn.NewAdam(m.cfg.LR)
	params := m.Params()
	clean := gradBuffers(params)
	var tape nn.Tape
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

	// A frozen encoder's embeddings come from its inference forward, once;
	// a fine-tuned one's from EncodeTokens, on the encoder's tape, at every
	// step.
	var cached []*mat.Mat
	golds := make([][]int, len(examples))
	if !fineTune {
		var a nn.Arena
		cached = make([]*mat.Mat, len(examples))
		for i, ex := range examples {
			a.Reset()
			cached[i] = m.enc.InferTokensArena(ex.Tokens, &a).Clone()
			golds[i] = goldIDs(ex.Labels, cached[i].Rows)
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
			var embeds *mat.Mat
			var gold []int
			if fineTune {
				embeds = te.EncodeTokens(examples[idx].Tokens)
				gold = goldIDs(examples[idx].Labels, embeds.Rows)
			} else {
				embeds, gold = cached[idx], golds[idx]
			}
			if embeds.Rows == 0 {
				continue
			}
			var encBack func(*mat.Mat)
			if fineTune {
				encBack = func(dEmbeds *mat.Mat) {
					nn.ZeroGrads(encParams)
					te.Backward(dEmbeds)
					nn.ClipGrads(encParams, m.cfg.ClipNorm)
					encOpt.Step(encParams)
				}
			}
			total += m.trainStep(&tape, opt, params, clean, embeds, gold, encBack)
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
	return m.proj.ForwardRows(m.bilstm.Forward(m.enc.InferTokensArena(tokens, a), a, nil), a, nil)
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
// labels it returns. The float64 forward is the one training runs, with no
// tape, so its labels are bit-for-bit the training pipeline's.
func (m *Model) PredictAt(tokens []string, p nn.Precision) []tokenize.Label {
	if m.Obs != nil {
		defer m.Obs.Histogram("tagger.predict").ObserveSince(time.Now())
	}
	a := arenaPool.Get().(*nn.Arena)
	a.Reset()
	out := make([]tokenize.Label, len(tokens))
	for i, l := range m.crf.Decode(m.emissions(tokens, a, p), a) {
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

// Train fits the classifier and returns the final epoch's mean loss. Each
// sentence is one step: the encoder's inference forward, the projection of
// every token on a tape, the per-token cross-entropy gradients written into
// the tape's rows, and one backward — so a warm step allocates nothing.
func (o *OpineDB) Train(examples []datasets.Example) float64 {
	o.gen.Store(nextGen())
	defer o.gen.Store(nextGen())
	opt := nn.NewAdam(o.cfg.LR)
	params := o.proj.Params()
	var t nn.Tape
	var last float64
	for epoch := 0; epoch < o.cfg.Epochs; epoch++ {
		var total float64
		var n int
		for _, ex := range examples {
			t.Reset()
			embeds := o.enc.InferTokensArena(ex.Tokens, &t.Arena)
			if embeds.Rows == 0 {
				continue
			}
			gold := goldIDs(ex.Labels, embeds.Rows)
			nn.ZeroGrads(params)
			logits := o.proj.ForwardRows(embeds, &t.Arena, &t)
			dLogits := t.MatRaw(logits.Rows, logits.Cols)
			var loss float64
			for i := 0; i < logits.Rows; i++ {
				loss += nn.SoftmaxCE(dLogits.Row(i), logits.Row(i), gold[i])
			}
			o.proj.BackwardRows(&t, dLogits)
			nn.ClipGrads(params, o.cfg.ClipNorm)
			opt.Step(params)
			total += loss / float64(embeds.Rows)
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
	logits := o.proj.ForwardRows(o.enc.InferTokensArena(tokens, a), a, nil)
	out := make([]tokenize.Label, len(tokens))
	for i := 0; i < logits.Rows; i++ {
		out[i] = tokenize.Label(logits.Row(i).MaxIdx())
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
