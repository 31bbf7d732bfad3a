package nn

import (
	"math"

	"saccs/internal/mat"
)

// SoftmaxCE computes softmax cross-entropy between logits and the gold class,
// writes dL/dlogits = softmax(logits) − onehot(gold) into d (which may alias
// logits) and returns the loss. This is the per-token decoder of the OpineDB
// baseline tagger and the output loss of the MLM head.
func SoftmaxCE(d, logits mat.Vec, gold int) float64 {
	mat.Softmax(d, logits)
	loss := -math.Log(math.Max(d[gold], 1e-12))
	d[gold] -= 1
	return loss
}

// BCELogit computes binary cross-entropy from a single pre-sigmoid logit and
// a {0,1} target, returning (loss, probability, dLogit). It powers the
// discriminative pairing classifier (§5.2).
func BCELogit(logit float64, target float64) (loss, prob, dLogit float64) {
	prob = mat.Sigmoid(logit)
	p := math.Min(math.Max(prob, 1e-12), 1-1e-12)
	loss = -(target*math.Log(p) + (1-target)*math.Log(1-p))
	dLogit = prob - target
	return loss, prob, dLogit
}

// FGSM returns the fast-gradient-sign perturbation δ* = ε·sign(g) of Eq. 9
// for each token, where row t of grads is the loss gradient with respect to
// token t's input embedding, in a matrix carved from a. Every δ* lies on the
// l∞ ball of radius ε (Δ(x) of Eq. 6); a zero (or NaN) gradient element
// leaves its coordinate unperturbed.
func FGSM(grads *mat.Mat, eps float64, a *Arena) *mat.Mat {
	out := a.Mat(grads.Rows, grads.Cols)
	for i, g := range grads.Data {
		switch {
		case g > 0:
			out.Data[i] = eps
		case g < 0:
			out.Data[i] = -eps
		}
	}
	return out
}
