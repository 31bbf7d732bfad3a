package bert

import (
	"fmt"
	"math/rand"
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

	// observability (nil when disabled; see SetObserver).
	o         *obs.Observer
	encHist   *obs.Histogram
	encTokens *obs.Counter
}

// SetObserver attaches runtime observability: every Encode records its
// latency and token count, and MLM training emits per-epoch duration and
// loss. A nil observer (the default) keeps the encode hot path to a single
// branch.
func (m *Model) SetObserver(o *obs.Observer) {
	m.o = o
	if o == nil {
		m.encHist, m.encTokens = nil, nil
		return
	}
	m.encHist = o.Histogram("bert.encode")
	m.encTokens = o.Counter("bert.encode.tokens.total")
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
// per token, a row each. Sequences longer than MaxLen are truncated. It runs
// the inference forward on the model's tape — the hidden states are
// InferTokensArena's bit for bit — and the returned rows, like the tape, stay
// valid for Attention and one Backward until the next Encode. Encode is not
// reentrant.
func (m *Model) Encode(ids []int) *mat.Mat {
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

// EncodeTokens tokenizes against the model vocabulary and encodes.
func (m *Model) EncodeTokens(tokens []string) *mat.Mat {
	return m.Encode(m.Vocab.Encode(tokens))
}

// Backward backpropagates upstream gradients d, a row per token, through
// the blocks and the embeddings of the most recent Encode, consuming its
// tape: one Backward per Encode. It returns the gradient with respect to the
// summed token+position input embeddings, carved from the tape and valid
// until the next Encode; d is only read. It panics if no Encode's tape is
// left to consume: no Encode yet, a second Backward, or a TrainMLM since.
func (m *Model) Backward(d *mat.Mat) *mat.Mat {
	if m.tape.Len() == 0 {
		panic("bert: Backward without an unconsumed Encode: call Encode once before each Backward")
	}
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
// recent Encode: row i is token i's attention distribution (Fig. 5). It is
// a view of the head's block of the rows the forward kept on the tape, so
// it copies nothing and stays valid until the next Encode.
func (m *Model) Attention(layer, head int) *mat.Mat {
	attn := m.tape.Kept(layer)
	if attn == nil || head < 0 || head >= m.Cfg.Heads {
		return nil
	}
	n := attn.Cols
	return &mat.Mat{Rows: n, Cols: n, Data: attn.Data[head*n*n : (head+1)*n*n]}
}

// EmbeddingDim returns the contextual vector width.
func (m *Model) EmbeddingDim() int { return m.Cfg.Dim }

// SentenceVec encodes tokens and mean-pools the contextual vectors — the
// sentence encoding of the embedding-cosine similarity (sim.Cosine). It runs
// the reentrant forward (InferTokensArena) on a local arena, so it is safe
// under concurrent queries.
func (m *Model) SentenceVec(tokens []string) mat.Vec {
	var a nn.Arena
	hs := m.InferTokensArena(tokens, &a)
	out := mat.NewVec(m.Cfg.Dim)
	if hs.Rows == 0 {
		return out
	}
	for i := 0; i < hs.Rows; i++ {
		out.Add(hs.Row(i))
	}
	out.Scale(1 / float64(hs.Rows))
	return out
}
