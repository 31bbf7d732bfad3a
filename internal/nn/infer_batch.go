package nn

import (
	"sync/atomic"

	"saccs/internal/mat"
)

// The inference forward's weight cache. Weights go to the GEMMs packed
// (transposed Out×In → In×Out) so the GEMM can stream B rows in k-major
// order. Packing copies values without reordering any sum — exactness is
// untouched — and the packed copy is cached on the layer, keyed by the
// parameter's mutation version (Param.NoteMutated): a retrain bumps the
// version after its last weight write, so a stale or torn pack can never
// outlive the training step that obsoleted it. Decodes that overlap a
// retrain may pack mid-step weights — their results are discarded by the
// generation check upstream (internal/extcache keying). A taped (training)
// forward never reads or fills the cache (see weightT).

// packSlot caches one transposed weight matrix against a Param version.
type packSlot struct {
	p atomic.Pointer[packedWeight]
}

type packedWeight struct {
	ver uint64
	m   *mat.Mat
}

// packedTransposed returns pᵀ (In×Out), rebuilding the cached copy when the
// parameter's version moved. The version is read before the copy: if a
// concurrent mutation tears the copy, the mutator's trailing NoteMutated
// leaves the cache keyed to a version that no longer matches, so the next
// call rebuilds from settled weights.
func packedTransposed(slot *packSlot, p *Param) *mat.Mat {
	v := p.Version()
	if c := slot.p.Load(); c != nil && c.ver == v {
		return c.m
	}
	t := mat.NewMat(p.W.Cols, p.W.Rows)
	transposeInto(t, p.W)
	slot.p.Store(&packedWeight{ver: v, m: t})
	return t
}
