package nn

import (
	"math/rand"

	"saccs/internal/mat"
)

// Embedding is a lookup table mapping token ids to dense vectors.
type Embedding struct {
	VocabSize, Dim int
	Table          *Param // VocabSize×Dim
}

// NewEmbedding returns an embedding table initialized with N(0, 0.1²).
func NewEmbedding(rng *rand.Rand, name string, vocabSize, dim int) *Embedding {
	e := &Embedding{VocabSize: vocabSize, Dim: dim, Table: NewParam(name+".table", vocabSize, dim)}
	NormalInit(rng, e.Table, 0.1)
	return e
}

// Params returns the layer's learnable tensors.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// LookupInto copies the embedding row for id into dst without allocating;
// an id outside the vocabulary reads row 0.
func (e *Embedding) LookupInto(dst mat.Vec, id int) {
	copy(dst, e.Table.W.Row(clampID(id, e.VocabSize)))
}

// Accumulate adds dvec into the gradient row for id.
func (e *Embedding) Accumulate(id int, dvec mat.Vec) {
	e.Table.G.Row(clampID(id, e.VocabSize)).Add(dvec)
}

func clampID(id, n int) int {
	if id < 0 || id >= n {
		return 0
	}
	return id
}
