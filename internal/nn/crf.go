package nn

import (
	"math"
	"math/rand"
	"sort"

	"saccs/internal/mat"
)

// CRF is a linear-chain conditional random field over L labels (Eq. 4 of the
// paper): learned transition, start and end potentials on top of per-token
// emission scores. Training uses exact forward–backward gradients; decoding
// uses Viterbi (Eq. 5) or beam search.
type CRF struct {
	L     int
	Trans *Param // L×L, Trans[i][j] scores label i followed by label j
	Start *Param // 1×L
	End   *Param // 1×L

	// disallowed[i][j] marks structurally invalid transitions (e.g. I-AS
	// after O in the IOB scheme); they receive a large negative penalty in
	// both training and decoding.
	disallowed  [][]bool
	badStart    []bool
	constrained bool
}

// hardPenalty is added to structurally invalid transitions.
const hardPenalty = -1e4

// NewCRF returns a CRF with small random potentials.
func NewCRF(rng *rand.Rand, name string, labels int) *CRF {
	c := &CRF{
		L:     labels,
		Trans: NewParam(name+".trans", labels, labels),
		Start: NewParam(name+".start", 1, labels),
		End:   NewParam(name+".end", 1, labels),
	}
	NormalInit(rng, c.Trans, 0.01)
	NormalInit(rng, c.Start, 0.01)
	NormalInit(rng, c.End, 0.01)
	return c
}

// Params returns the learnable tensors.
func (c *CRF) Params() []*Param { return []*Param{c.Trans, c.Start, c.End} }

// SetConstraints installs hard structural constraints: validTrans(a, b)
// reports whether label b may follow label a, validStart whether a sequence
// may begin with the label.
func (c *CRF) SetConstraints(validTrans func(a, b int) bool, validStart func(int) bool) {
	c.disallowed = make([][]bool, c.L)
	c.badStart = make([]bool, c.L)
	for i := 0; i < c.L; i++ {
		c.disallowed[i] = make([]bool, c.L)
		for j := 0; j < c.L; j++ {
			c.disallowed[i][j] = !validTrans(i, j)
		}
		c.badStart[i] = !validStart(i)
	}
	c.constrained = true
}

func (c *CRF) trans(i, j int) float64 {
	v := c.Trans.W.At(i, j)
	if c.constrained && c.disallowed[i][j] {
		v += hardPenalty
	}
	return v
}

func (c *CRF) start(j int) float64 {
	v := c.Start.W.At(0, j)
	if c.constrained && c.badStart[j] {
		v += hardPenalty
	}
	return v
}

// NLL returns the negative log-likelihood of gold given emissions, and the
// gradient with respect to the emissions (marginals minus gold one-hots).
// CRF parameter gradients are accumulated internally.
func (c *CRF) NLL(emissions []mat.Vec, gold []int) (float64, []mat.Vec) {
	n := len(emissions)
	if n == 0 {
		return 0, nil
	}
	L := c.L

	// Forward pass (log space).
	alpha := NewSeq(n, L)
	for j := 0; j < L; j++ {
		alpha[0][j] = c.start(j) + emissions[0][j]
	}
	scratch := mat.NewVec(L)
	for t := 1; t < n; t++ {
		for j := 0; j < L; j++ {
			for i := 0; i < L; i++ {
				scratch[i] = alpha[t-1][i] + c.trans(i, j)
			}
			alpha[t][j] = emissions[t][j] + mat.LogSumExp(scratch)
		}
	}
	final := mat.NewVec(L)
	for j := 0; j < L; j++ {
		final[j] = alpha[n-1][j] + c.End.W.At(0, j)
	}
	logZ := mat.LogSumExp(final)

	// Backward pass.
	beta := NewSeq(n, L)
	for j := 0; j < L; j++ {
		beta[n-1][j] = c.End.W.At(0, j)
	}
	for t := n - 2; t >= 0; t-- {
		for i := 0; i < L; i++ {
			for j := 0; j < L; j++ {
				scratch[j] = c.trans(i, j) + emissions[t+1][j] + beta[t+1][j]
			}
			beta[t][i] = mat.LogSumExp(scratch)
		}
	}

	// Gold path score.
	score := c.start(gold[0]) + emissions[0][gold[0]]
	for t := 1; t < n; t++ {
		score += c.trans(gold[t-1], gold[t]) + emissions[t][gold[t]]
	}
	score += c.End.W.At(0, gold[n-1])
	loss := logZ - score

	// Emission gradients: unary marginals minus gold indicators.
	dE := NewSeq(n, L)
	for t := 0; t < n; t++ {
		for j := 0; j < L; j++ {
			dE[t][j] = math.Exp(alpha[t][j] + beta[t][j] - logZ)
		}
		dE[t][gold[t]] -= 1
	}
	// Start/end gradients.
	for j := 0; j < L; j++ {
		c.Start.G.Data[j] += math.Exp(alpha[0][j]+beta[0][j]-logZ) - b2f(j == gold[0])
		c.End.G.Data[j] += math.Exp(alpha[n-1][j]+c.End.W.At(0, j)-logZ) - b2f(j == gold[n-1])
	}
	// Transition gradients: pairwise marginals minus gold transition counts.
	for t := 0; t < n-1; t++ {
		for i := 0; i < L; i++ {
			for j := 0; j < L; j++ {
				p := math.Exp(alpha[t][i] + c.trans(i, j) + emissions[t+1][j] + beta[t+1][j] - logZ)
				c.Trans.G.Data[i*L+j] += p
			}
		}
		c.Trans.G.Data[gold[t]*L+gold[t+1]] -= 1
	}
	return loss, dE
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Decode returns the Viterbi-optimal label sequence for the emissions.
func (c *CRF) Decode(emissions []mat.Vec) []int {
	n := len(emissions)
	if n == 0 {
		return nil
	}
	L := c.L
	delta := mat.NewVec(L)
	for j := 0; j < L; j++ {
		delta[j] = c.start(j) + emissions[0][j]
	}
	back := make([][]int, n)
	next := mat.NewVec(L)
	for t := 1; t < n; t++ {
		back[t] = make([]int, L)
		for j := 0; j < L; j++ {
			best, bi := math.Inf(-1), 0
			for i := 0; i < L; i++ {
				s := delta[i] + c.trans(i, j)
				if s > best {
					best, bi = s, i
				}
			}
			next[j] = best + emissions[t][j]
			back[t][j] = bi
		}
		copy(delta, next)
	}
	for j := 0; j < L; j++ {
		delta[j] += c.End.W.At(0, j)
	}
	path := make([]int, n)
	path[n-1] = delta.MaxIdx()
	for t := n - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path
}

// PathScore returns the unnormalized CRF score of one label path under the
// given emissions: start + per-step emission + transition + end, with the
// same constraint penalties Decode applies. Decode returns the argmax of
// this function; exposing it lets differential checks (oracle/quant-drift)
// measure how much the model actually prefers one path over another.
func (c *CRF) PathScore(emissions []mat.Vec, path []int) float64 {
	n := len(emissions)
	if n == 0 || len(path) != n {
		return math.Inf(-1)
	}
	score := c.start(path[0]) + emissions[0][path[0]]
	for t := 1; t < n; t++ {
		score += c.trans(path[t-1], path[t]) + emissions[t][path[t]]
	}
	return score + c.End.W.At(0, path[n-1])
}

// beamHyp is one partial hypothesis during beam decoding.
type beamHyp struct {
	score float64
	last  int
	path  []int
}

// BeamDecode returns the best label sequence found by beam search with the
// given beam width. With width >= L it matches Viterbi on the max-scoring
// path's score; smaller beams trade exactness for speed (§4.1 "Viterbi along
// with beam search").
func (c *CRF) BeamDecode(emissions []mat.Vec, width int) []int {
	n := len(emissions)
	if n == 0 {
		return nil
	}
	if width < 1 {
		width = 1
	}
	beams := make([]beamHyp, 0, c.L)
	for j := 0; j < c.L; j++ {
		beams = append(beams, beamHyp{score: c.start(j) + emissions[0][j], last: j, path: []int{j}})
	}
	beams = topK(beams, width)
	for t := 1; t < n; t++ {
		cand := make([]beamHyp, 0, len(beams)*c.L)
		for _, h := range beams {
			for j := 0; j < c.L; j++ {
				path := make([]int, len(h.path)+1)
				copy(path, h.path)
				path[len(h.path)] = j
				cand = append(cand, beamHyp{
					score: h.score + c.trans(h.last, j) + emissions[t][j],
					last:  j,
					path:  path,
				})
			}
		}
		beams = topK(cand, width)
	}
	best, bestScore := beams[0], math.Inf(-1)
	for _, h := range beams {
		if s := h.score + c.End.W.At(0, h.last); s > bestScore {
			best, bestScore = h, s
		}
	}
	return best.path
}

func topK(hyps []beamHyp, k int) []beamHyp {
	sort.Slice(hyps, func(i, j int) bool { return hyps[i].score > hyps[j].score })
	if len(hyps) > k {
		hyps = hyps[:k]
	}
	return hyps
}
