// Package snorkel implements the data-programming pipeline of §5.2 (Fig. 6),
// after Ratner et al. [48, 49]: weak-supervision labeling functions vote on
// unlabeled examples; a label model — either a simple majority vote or a
// probabilistic generative model fit by EM over labeling-function accuracies,
// without any ground truth — aggregates the votes into training labels for a
// downstream discriminative model.
package snorkel

import (
	"fmt"
	"math"
)

// Vote is one labeling function's output on one example.
type Vote int8

// Labeling functions vote Positive/Negative or abstain.
const (
	Abstain  Vote = -1
	Negative Vote = 0
	Positive Vote = 1
)

// LF is a named labeling function over examples of type T.
type LF[T any] struct {
	Name  string
	Apply func(x T) Vote
}

// ApplyAll evaluates every labeling function on every example, producing the
// vote matrix votes[i][j] (example i, function j).
func ApplyAll[T any](lfs []LF[T], data []T) [][]Vote {
	out := make([][]Vote, len(data))
	for i, x := range data {
		row := make([]Vote, len(lfs))
		for j, lf := range lfs {
			row[j] = lf.Apply(x)
		}
		out[i] = row
	}
	return out
}

// LabelModel converts one example's votes into a probabilistic label.
type LabelModel interface {
	// Posterior returns P(y = 1 | votes).
	Posterior(votes []Vote) float64
}

// Predict thresholds a model's posterior at 1/2.
func Predict(m LabelModel, votes []Vote) bool { return m.Posterior(votes) > 0.5 }

// Majority is the simple aggregation of §5.2: each labeling function is an
// independent voter; the most agreed-upon label wins, ties break Negative
// (the conservative choice for extraction).
type Majority struct{}

// Posterior returns the fraction of positive votes among non-abstains,
// or 0.5-biased-down on an all-abstain row.
func (Majority) Posterior(votes []Vote) float64 {
	pos, total := 0, 0
	for _, v := range votes {
		switch v {
		case Positive:
			pos++
			total++
		case Negative:
			total++
		}
	}
	if total == 0 {
		return 0.49 // no signal: lean negative
	}
	p := float64(pos) / float64(total)
	if p == 0.5 {
		return 0.49 // tie breaks negative
	}
	return p
}

// Generative is the probabilistic graphical label model, a Dawid–Skene
// mixture: each labeling function j has an unknown sensitivity Sens[j]
// (probability of voting Positive on a true positive) and specificity
// Spec[j] (probability of voting Negative on a true negative); the true
// label has prior Prior. All parameters are estimated from agreements and
// disagreements alone via EM — no ground-truth labels are used. Per-class
// parameters matter here because the pairing heuristics are asymmetric:
// a one-pair-per-aspect heuristic is very precise when it votes Positive
// but produces many false negatives on multi-opinion aspects.
type Generative struct {
	Sens  []float64
	Spec  []float64
	Prior float64
}

// Acc returns LF j's balanced accuracy (mean of sensitivity and
// specificity), a convenient scalar summary.
func (g *Generative) Acc(j int) float64 { return (g.Sens[j] + g.Spec[j]) / 2 }

// FitGenerative runs EM on the vote matrix for the given iterations.
func FitGenerative(votes [][]Vote, iters int) (*Generative, error) {
	if len(votes) == 0 {
		return nil, fmt.Errorf("snorkel: empty vote matrix")
	}
	nLF := len(votes[0])
	for i, row := range votes {
		if len(row) != nLF {
			return nil, fmt.Errorf("snorkel: ragged vote matrix at row %d", i)
		}
	}
	g := &Generative{
		Sens:  make([]float64, nLF),
		Spec:  make([]float64, nLF),
		Prior: 0.5,
	}
	for j := 0; j < nLF; j++ {
		// Better-than-chance init breaks the label-flip symmetry.
		g.Sens[j] = 0.7 + 0.01*float64(j%3)
		g.Spec[j] = 0.7 + 0.01*float64(j%3)
	}
	post := make([]float64, len(votes))
	for it := 0; it < iters; it++ {
		// E-step: posterior of y=1 per example.
		for i, row := range votes {
			post[i] = g.Posterior(row)
		}
		// M-step: update prior, sensitivities and specificities.
		var priorSum float64
		for _, p := range post {
			priorSum += p
		}
		g.Prior = clampProb(priorSum / float64(len(votes)))
		for j := 0; j < nLF; j++ {
			var posHit, posTot, negHit, negTot float64
			for i, row := range votes {
				v := row[j]
				if v == Abstain {
					continue
				}
				p := post[i]
				posTot += p
				negTot += 1 - p
				if v == Positive {
					posHit += p
				} else {
					negHit += 1 - p
				}
			}
			if posTot > 0 {
				g.Sens[j] = clampProb(posHit / posTot)
			}
			if negTot > 0 {
				g.Spec[j] = clampProb(negHit / negTot)
			}
		}
	}
	return g, nil
}

// Posterior computes P(y=1 | votes) under the conditional-independence
// model, in log space for stability.
func (g *Generative) Posterior(votes []Vote) float64 {
	logPos := math.Log(g.Prior)
	logNeg := math.Log(1 - g.Prior)
	for j, v := range votes {
		if v == Abstain || j >= len(g.Sens) {
			continue
		}
		sens := clampProb(g.Sens[j])
		spec := clampProb(g.Spec[j])
		if v == Positive {
			logPos += math.Log(sens)
			logNeg += math.Log(1 - spec)
		} else {
			logPos += math.Log(1 - sens)
			logNeg += math.Log(spec)
		}
	}
	m := math.Max(logPos, logNeg)
	pos := math.Exp(logPos - m)
	neg := math.Exp(logNeg - m)
	return pos / (pos + neg)
}

func clampProb(p float64) float64 {
	const eps = 1e-3
	return math.Min(1-eps, math.Max(eps, p))
}
