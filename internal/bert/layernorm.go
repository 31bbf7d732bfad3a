// Package bert implements MiniBERT, the reproduction's stand-in for the
// pre-trained BERT of the paper (§4.1): a multi-head self-attention
// transformer encoder with token and position embeddings, trained with a
// masked-language-model objective — first on a general corpus (Wikipedia's
// role), then post-trained on domain reviews (the domain-knowledge step of
// §4.2, Xu et al. [58]). Attention matrices of every (layer, head) are
// exposed for the pairing heuristic of §5.1 (Fig. 5).
package bert

import (
	"math"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// LayerNorm normalizes a vector to zero mean / unit variance and applies a
// learned affine transform.
type LayerNorm struct {
	Dim   int
	Gain  *nn.Param // 1×Dim
	Bias  *nn.Param // 1×Dim
	Eps   float64
	cache []lnCache
}

type lnCache struct {
	xhat mat.Vec
	std  float64
}

// NewLayerNorm returns a layer norm with gain 1 and bias 0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:  dim,
		Gain: nn.NewParam(name+".gain", 1, dim),
		Bias: nn.NewParam(name+".bias", 1, dim),
		Eps:  1e-5,
	}
	for i := range ln.Gain.W.Data {
		ln.Gain.W.Data[i] = 1
	}
	return ln
}

// Params returns the learnable tensors.
func (ln *LayerNorm) Params() []*nn.Param { return []*nn.Param{ln.Gain, ln.Bias} }

// ForwardSeq normalizes each vector, caching intermediates for BackwardSeq.
func (ln *LayerNorm) ForwardSeq(xs []mat.Vec) []mat.Vec {
	ln.cache = make([]lnCache, len(xs))
	ys := make([]mat.Vec, len(xs))
	for t, x := range xs {
		mean := x.Mean()
		var varSum float64
		for _, v := range x {
			d := v - mean
			varSum += d * d
		}
		std := math.Sqrt(varSum/float64(len(x)) + ln.Eps)
		xhat := mat.NewVec(len(x))
		y := mat.NewVec(len(x))
		for i, v := range x {
			xhat[i] = (v - mean) / std
			y[i] = xhat[i]*ln.Gain.W.Data[i] + ln.Bias.W.Data[i]
		}
		ln.cache[t] = lnCache{xhat: xhat, std: std}
		ys[t] = y
	}
	return ys
}

// ApplyInto normalizes x into the caller-provided y — the allocation-free
// inference row kernel. It computes exactly what ForwardSeq computes for one
// vector (same mean/variance/affine order), writes no receiver state, and is
// safe for concurrent callers (BackwardSeq still requires a prior
// ForwardSeq).
func (ln *LayerNorm) ApplyInto(y, x mat.Vec) {
	mean := x.Mean()
	var varSum float64
	for _, v := range x {
		d := v - mean
		varSum += d * d
	}
	std := math.Sqrt(varSum/float64(len(x)) + ln.Eps)
	for i, v := range x {
		y[i] = (v-mean)/std*ln.Gain.W.Data[i] + ln.Bias.W.Data[i]
	}
}

// BackwardSeq backpropagates through the most recent ForwardSeq.
func (ln *LayerNorm) BackwardSeq(dys []mat.Vec) []mat.Vec {
	dxs := make([]mat.Vec, len(dys))
	n := float64(ln.Dim)
	for t, dy := range dys {
		c := ln.cache[t]
		dxhat := mat.NewVec(ln.Dim)
		var sumDxhat, sumDxhatXhat float64
		for i, d := range dy {
			ln.Gain.G.Data[i] += d * c.xhat[i]
			ln.Bias.G.Data[i] += d
			dxhat[i] = d * ln.Gain.W.Data[i]
			sumDxhat += dxhat[i]
			sumDxhatXhat += dxhat[i] * c.xhat[i]
		}
		dx := mat.NewVec(ln.Dim)
		for i := range dx {
			dx[i] = (dxhat[i] - sumDxhat/n - c.xhat[i]*sumDxhatXhat/n) / c.std
		}
		dxs[t] = dx
	}
	return dxs
}
