package bert

import (
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// The float64 forward: one token sequence is one matrix, a row per token.
// The linear projections of all rows run as single GEMMs on
// mat.MatMulInto's fast path; attention, layer norm, GELU, and residuals are
// per-row or per-sequence. Inference runs it with no tape and writes no
// receiver state, so any number of goroutines may infer concurrently, each
// with its own arena; Encode runs the same forward on the model's tape,
// which Backward then reads.

// InferTokensArena tokenizes and encodes one sequence in an arena-backed
// forward pass and returns its hidden states, one row per token; a sequence
// longer than MaxLen is truncated, exactly as in Encode. Everything —
// including the returned matrix — is carved from the caller's arena and
// valid only until its next Reset.
func (m *Model) InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat {
	return m.infer(tokens, a, nil)
}

// Encoding is one sequence's inference forward with its attention kept: the
// hidden states and, per layer, the attention rows of every head.
type Encoding struct {
	// Rows holds the hidden states, a row per token.
	Rows *mat.Mat
	// Attn holds one Heads·n × n block per layer: head h, token i at row
	// h·n+i, the layout Backward reads from the tape.
	Attn []*mat.Mat
	// Heads is the number of heads per layer.
	Heads int
}

// Attention returns the n×n attention matrix of (layer, head): row i is
// token i's attention distribution (Fig. 5). It is a view of the layer's
// block, or nil when layer or head is out of range.
func (e Encoding) Attention(layer, head int) *mat.Mat {
	if layer < 0 || layer >= len(e.Attn) || head < 0 || head >= e.Heads {
		return nil
	}
	n := e.Attn[layer].Cols
	return &mat.Mat{Rows: n, Cols: n, Data: e.Attn[layer].Data[head*n*n : (head+1)*n*n]}
}

// InferAttentionArena is InferTokensArena that also keeps every layer's
// attention rows, in blocks carved from a; the hidden states are
// InferTokensArena's bit for bit. Like it, it is reentrant, and everything
// it returns is valid only until a's next Reset.
func (m *Model) InferAttentionArena(tokens []string, a *nn.Arena) Encoding {
	n := min(len(tokens), m.Cfg.MaxLen)
	e := Encoding{Attn: make([]*mat.Mat, len(m.Blocks)), Heads: m.Cfg.Heads}
	for l := range e.Attn {
		e.Attn[l] = a.MatRaw(m.Cfg.Heads*n, n)
	}
	e.Rows = m.infer(tokens, a, e.Attn)
	return e
}

// infer embeds and encodes tokens with no tape, writing layer l's attention
// rows into attn[l] when attn is non-nil.
func (m *Model) infer(tokens []string, a *nn.Arena, attn []*mat.Mat) *mat.Mat {
	n := min(len(tokens), m.Cfg.MaxLen)
	if m.o != nil {
		defer m.encHist.ObserveSince(time.Now())
		m.encTokens.Add(int64(n))
	}
	x := a.MatRaw(n, m.Cfg.Dim)
	for i := 0; i < n; i++ {
		m.embedInto(x.Row(i), m.Vocab.ID(tokens[i]), i)
	}
	return m.blocks(x, a, nil, attn)
}

// embedInto writes the summed token and position embedding into row.
func (m *Model) embedInto(row mat.Vec, id, pos int) {
	m.TokEmb.LookupInto(row, id)
	row.Add(m.PosEmb.Table.W.Row(pos))
}

// blocks runs the transformer stack over one sequence's embedded rows; a
// non-nil attn receives each layer's attention rows.
func (m *Model) blocks(x *mat.Mat, a *nn.Arena, t *nn.Tape, attn []*mat.Mat) *mat.Mat {
	for l, b := range m.Blocks {
		var at *mat.Mat
		if attn != nil {
			at = attn[l]
		}
		x = b.Forward(x, a, t, at)
	}
	return x
}
