package bert

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/tokenize"
)

// Config sizes a MiniBERT model.
type Config struct {
	// Layers is the number of transformer blocks.
	Layers int
	// Heads per block; Dim must be divisible by Heads.
	Heads int
	// Dim is the hidden width.
	Dim int
	// FFDim is the feed-forward inner width.
	FFDim int
	// MaxLen bounds sequence length (position table size).
	MaxLen int
}

// DefaultConfig returns the laptop-scale configuration used across the
// reproduction: 2 layers × 8 heads × 64 dims.
func DefaultConfig() Config {
	return Config{Layers: 2, Heads: 8, Dim: 64, FFDim: 128, MaxLen: 48}
}

// Model is the MiniBERT encoder plus its MLM head.
type Model struct {
	Cfg    Config
	Vocab  *tokenize.Vocab
	TokEmb *nn.Embedding
	PosEmb *nn.Embedding
	Blocks []*Block
	// MLMHead projects hidden states back onto the vocabulary.
	MLMHead *nn.Linear

	// lastIDs and tape record the last Encode: Backward and Attention read
	// them until the next Encode.
	lastIDs []int
	tape    nn.Tape

	// scratch recycles per-call inference buffers across goroutines; see
	// Infer. Counters (attached via SetObserver) track pool traffic:
	// hits = gets − misses.
	scratch sync.Pool

	// observability (nil when disabled; see SetObserver).
	o           *obs.Observer
	encHist     *obs.Histogram
	encTokens   *obs.Counter
	scratchGets *obs.Counter
	scratchMiss *obs.Counter
}

// Scratch holds the per-call buffers of one inference forward pass: a whole-
// pipeline arena that every intermediate of the transformer stack (embedding
// sums, attention projections, score and softmax rows, residuals, FFN
// activations) is carved from. A Scratch belongs to exactly one in-flight
// Infer call; the model's sync.Pool recycles them so concurrent queries stop
// allocating entirely once each pooled arena has seen its peak demand.
type Scratch struct {
	nn.Arena
}

// SetObserver attaches runtime observability: every Encode records its
// latency and token count, and MLM training emits per-epoch duration and
// loss. A nil observer (the default) keeps the encode hot path to a single
// branch.
func (m *Model) SetObserver(o *obs.Observer) {
	m.o = o
	if o == nil {
		m.encHist, m.encTokens = nil, nil
		m.scratchGets, m.scratchMiss = nil, nil
		return
	}
	m.encHist = o.Histogram("bert.encode")
	m.encTokens = o.Counter("bert.encode.tokens.total")
	m.scratchGets = o.Counter("bert.scratch.get.total")
	m.scratchMiss = o.Counter("bert.scratch.miss.total")
}

// New builds a randomly initialized MiniBERT over the given vocabulary.
func New(rng *rand.Rand, cfg Config, vocab *tokenize.Vocab) *Model {
	m := &Model{
		Cfg:     cfg,
		Vocab:   vocab,
		TokEmb:  nn.NewEmbedding(rng, "bert.tok", vocab.Len(), cfg.Dim),
		PosEmb:  nn.NewEmbedding(rng, "bert.pos", cfg.MaxLen, cfg.Dim),
		MLMHead: nn.NewLinear(rng, "bert.mlm", cfg.Dim, vocab.Len()),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, NewBlock(rng, fmt.Sprintf("bert.block%d", i), cfg.Dim, cfg.Heads, cfg.FFDim))
	}
	m.scratch.New = func() any {
		m.scratchMiss.Inc()
		return &Scratch{}
	}
	return m
}

// Params returns every learnable tensor, MLM head included.
func (m *Model) Params() []*nn.Param {
	ps := append(m.TokEmb.Params(), m.PosEmb.Params()...)
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, m.MLMHead.Params()...)
}

// EncoderParams returns the learnable tensors without the MLM head.
func (m *Model) EncoderParams() []*nn.Param {
	ps := append(m.TokEmb.Params(), m.PosEmb.Params()...)
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	return ps
}

// truncate clips ids to the model's positional capacity.
func (m *Model) truncate(ids []int) []int {
	if len(ids) > m.Cfg.MaxLen {
		return ids[:m.Cfg.MaxLen]
	}
	return ids
}

// Encode runs the encoder over token ids and returns one contextual vector
// per token, in one freshly allocated backing array. Sequences longer than
// MaxLen are truncated. It runs the inference forward on the model's tape:
// the hidden states are Infer's bit for bit, and the tape stays valid for
// Attention and one Backward until the next Encode. Encode is not
// reentrant.
func (m *Model) Encode(ids []int) []mat.Vec {
	return copyRows(m.encode(ids))
}

// encode is Encode without the copy: the last layer's rows, carved from the
// tape.
func (m *Model) encode(ids []int) *mat.Mat {
	if m.o != nil {
		defer m.encHist.ObserveSince(time.Now())
		m.encTokens.Add(int64(len(ids)))
	}
	ids = m.truncate(ids)
	m.lastIDs = ids
	t := &m.tape
	t.Reset()
	x := t.MatRaw(len(ids), m.Cfg.Dim)
	for i, id := range ids {
		m.embedInto(x.Row(i), id, i)
	}
	return m.blocks(x, &t.Arena, t)
}

// copyRows copies h's rows out into one backing array and one header slice.
func copyRows(h *mat.Mat) []mat.Vec {
	out := make([]mat.Vec, h.Rows)
	flat := append([]float64(nil), h.Data...)
	for i := range out {
		out[i] = flat[i*h.Cols : (i+1)*h.Cols : (i+1)*h.Cols]
	}
	return out
}

// EncodeTokens tokenizes against the model vocabulary and encodes.
func (m *Model) EncodeTokens(tokens []string) []mat.Vec {
	return m.Encode(m.Vocab.Encode(tokens))
}

// Infer is the reentrant counterpart of Encode: the same forward and the
// same hidden states, bit for bit, with no tape. No receiver state is
// written, so any number of goroutines may infer concurrently. Per-call
// buffers come from a pooled arena; the returned vectors are copied out of
// it (one backing array for the whole sequence), so they outlive the call.
// Backward and Attention do not see Infer calls — use Encode for training
// and for the §5.1 attention-pairing readback.
func (m *Model) Infer(ids []int) []mat.Vec {
	if m.o != nil {
		defer m.encHist.ObserveSince(time.Now())
		m.encTokens.Add(int64(len(ids)))
	}
	m.scratchGets.Inc()
	s, _ := m.scratch.Get().(*Scratch)
	if s == nil { // zero-value Model built without New
		s = &Scratch{}
	}
	s.Reset()
	ids = m.truncate(ids)
	x := s.MatRaw(len(ids), m.Cfg.Dim)
	for i, id := range ids {
		m.embedInto(x.Row(i), id, i)
	}
	// Copy results out of the arena before pooling it.
	out := copyRows(m.blocks(x, &s.Arena, nil))
	m.scratch.Put(s)
	return out
}

// InferTokens tokenizes against the model vocabulary and runs the reentrant
// forward pass (see Infer).
func (m *Model) InferTokens(tokens []string) []mat.Vec {
	return m.Infer(m.Vocab.Encode(tokens))
}

// Backward backpropagates upstream gradients through the blocks and the
// embeddings of the most recent Encode, consuming its tape: one Backward
// per Encode. It returns the gradient with respect to the summed
// token+position input embeddings (useful for FGSM), as views into the tape
// that stay valid until the next Encode. It panics if no Encode's tape is
// left to consume: no Encode yet, a second Backward, or a TrainMLM since.
func (m *Model) Backward(dhs []mat.Vec) []mat.Vec {
	t := &m.tape
	if t.Len() == 0 {
		panic("bert: Backward without an unconsumed Encode: call Encode once before each Backward")
	}
	return t.Rows(m.backward(t.Pack(dhs, m.Cfg.Dim)))
}

// backward is Backward over the tape's rows.
func (m *Model) backward(d *mat.Mat) *mat.Mat {
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		d = m.Blocks[i].Backward(&m.tape, d)
	}
	for i, id := range m.lastIDs {
		m.TokEmb.Accumulate(id, d.Row(i))
		m.PosEmb.Accumulate(i, d.Row(i))
	}
	return d
}

// Attention returns the attention matrix of (layer, head) from the most
// recent Encode, read from its tape: row i is token i's attention
// distribution (Fig. 5). The rows stay valid until the next Encode.
func (m *Model) Attention(layer, head int) []mat.Vec {
	attn := m.tape.Kept(layer)
	if attn == nil || head < 0 || head >= m.Cfg.Heads {
		return nil
	}
	n := attn.Cols
	rows := m.tape.Seq(n)
	for i := range rows {
		rows[i] = attn.Row(head*n + i)
	}
	return rows
}

// EmbeddingDim returns the contextual vector width.
func (m *Model) EmbeddingDim() int { return m.Cfg.Dim }

// SentenceVec encodes tokens and mean-pools the contextual vectors — the
// sentence encoding used by the discriminative pairing classifier (§5.2).
// It runs the reentrant forward pass, so similarity measures built on it
// (sim.Cosine) are safe under concurrent queries.
func (m *Model) SentenceVec(tokens []string) mat.Vec {
	hs := m.InferTokens(tokens)
	out := mat.NewVec(m.Cfg.Dim)
	if len(hs) == 0 {
		return out
	}
	for _, h := range hs {
		out.Add(h)
	}
	out.Scale(1 / float64(len(hs)))
	return out
}
