package nn

import (
	"math"

	"saccs/internal/mat"
)

// SoftmaxCE computes softmax cross-entropy between logits and the gold class
// and returns (loss, dLogits). This is the per-token decoder of the OpineDB
// baseline tagger and the output loss of the MLM head.
func SoftmaxCE(logits mat.Vec, gold int) (float64, mat.Vec) {
	p := mat.NewVec(len(logits))
	mat.Softmax(p, logits)
	loss := -math.Log(math.Max(p[gold], 1e-12))
	d := p // reuse: dL/dlogits = p - onehot(gold)
	d[gold] -= 1
	return loss, d
}

// BCELogit computes binary cross-entropy from a single pre-sigmoid logit and
// a {0,1} target, returning (loss, probability, dLogit). It powers the
// discriminative pairing classifier (§5.2).
func BCELogit(logit float64, target float64) (loss, prob, dLogit float64) {
	prob = Sigmoid(logit)
	p := math.Min(math.Max(prob, 1e-12), 1-1e-12)
	loss = -(target*math.Log(p) + (1-target)*math.Log(1-p))
	dLogit = prob - target
	return loss, prob, dLogit
}

// FGSMSeq returns the fast-gradient-sign perturbation δ* = ε·sign(g) of
// Eq. 9 for each token, where g is the loss gradient with respect to that
// token's input embedding. Every δ* lies on the l∞ ball of radius ε (Δ(x) of
// Eq. 6); the vectors share one backing array.
func FGSMSeq(grads []mat.Vec, eps float64) []mat.Vec {
	if len(grads) == 0 {
		return nil
	}
	out := NewSeq(len(grads), len(grads[0]))
	for t, grad := range grads {
		d := out[t]
		for i, g := range grad {
			switch {
			case g > 0:
				d[i] = eps
			case g < 0:
				d[i] = -eps
			}
		}
	}
	return out
}
