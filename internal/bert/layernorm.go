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
	Dim  int
	Gain *nn.Param // 1×Dim
	Bias *nn.Param // 1×Dim
	Eps  float64
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

// Forward normalizes each row of x into rows carved from a: xhat =
// (x − mean)/std, then xhat·gain + bias. With a tape it records every row's
// xhat and std for Backward.
func (ln *LayerNorm) Forward(x *mat.Mat, a *nn.Arena, t *nn.Tape) *mat.Mat {
	n := x.Rows
	y := a.MatRaw(n, ln.Dim)
	xhat, std := a.MatRaw(1, ln.Dim), (*mat.Mat)(nil) // inference: one reused xhat row
	if t != nil {
		xhat, std = a.MatRaw(n, ln.Dim), a.MatRaw(n, 1)
		t.Push(xhat, std)
	}
	gain, bias := ln.Gain.W.Data, ln.Bias.W.Data
	for r := 0; r < n; r++ {
		xr, yr, hr := x.Row(r), y.Row(r), xhat.Row(0)
		mean := xr.Mean()
		var varSum float64
		for _, v := range xr {
			d := v - mean
			varSum += d * d
		}
		s := math.Sqrt(varSum/float64(len(xr)) + ln.Eps)
		if std != nil {
			hr = xhat.Row(r)
			std.Data[r] = s
		}
		for i, v := range xr {
			hr[i] = (v - mean) / s
			yr[i] = hr[i]*gain[i] + bias[i]
		}
	}
	return y
}

// Backward pops what Forward recorded, backpropagates the upstream
// gradients dy (a row per token) and returns the input gradients.
func (ln *LayerNorm) Backward(t *nn.Tape, dy *mat.Mat) *mat.Mat {
	std, xhat := t.Pop(), t.Pop()
	dx := t.MatRaw(dy.Rows, ln.Dim)
	dxhat := t.Vec(ln.Dim)
	n := float64(ln.Dim)
	for r := 0; r < dy.Rows; r++ {
		d, xh, s := dy.Row(r), xhat.Row(r), std.Data[r]
		var sumDxhat, sumDxhatXhat float64
		for i, dv := range d {
			ln.Gain.G.Data[i] += dv * xh[i]
			ln.Bias.G.Data[i] += dv
			dxhat[i] = dv * ln.Gain.W.Data[i]
			sumDxhat += dxhat[i]
			sumDxhatXhat += dxhat[i] * xh[i]
		}
		dxr := dx.Row(r)
		for i := range dxr {
			dxr[i] = (dxhat[i] - sumDxhat/n - xh[i]*sumDxhatXhat/n) / s
		}
	}
	return dx
}
