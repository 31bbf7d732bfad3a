package bert

import (
	"math/rand"
	"time"

	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// MLMConfig tunes masked-language-model training.
type MLMConfig struct {
	// MaskProb is the fraction of tokens selected for prediction (BERT's 15%).
	MaskProb float64
	// LR is the Adam learning rate.
	LR float64
	// Epochs over the corpus.
	Epochs int
	// ClipNorm bounds the global gradient norm per step.
	ClipNorm float64
}

// DefaultMLMConfig returns the training recipe used by the reproduction.
func DefaultMLMConfig() MLMConfig {
	return MLMConfig{MaskProb: 0.15, LR: 1e-3, Epochs: 3, ClipNorm: 5}
}

// TrainMLM runs masked-language-model training over the corpus (one sentence
// per step) and returns the mean loss of the final epoch. Selected positions
// follow BERT's 80/10/10 rule: 80% become [MASK], 10% a random token, 10%
// stay unchanged.
func (m *Model) TrainMLM(rng *rand.Rand, corpus [][]string, cfg MLMConfig) float64 {
	opt := nn.NewAdam(cfg.LR)
	params := m.Params()
	maskID := m.Vocab.ID(tokenize.MaskToken)
	var lastEpochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		var epochStart time.Time
		if m.o != nil {
			epochStart = time.Now()
		}
		var total float64
		var count int
		for _, sent := range corpus {
			ids := m.truncate(m.Vocab.Encode(sent))
			if len(ids) == 0 {
				continue
			}
			masked := append([]int(nil), ids...)
			var targets []int // positions to predict
			for i := range masked {
				if rng.Float64() >= cfg.MaskProb {
					continue
				}
				targets = append(targets, i)
				switch r := rng.Float64(); {
				case r < 0.8:
					masked[i] = maskID
				case r < 0.9:
					masked[i] = rng.Intn(m.Vocab.Len())
				}
			}
			if len(targets) == 0 {
				targets = append(targets, rng.Intn(len(masked)))
				masked[targets[0]] = maskID
			}
			total += m.mlmStep(opt, params, ids, masked, targets, cfg.ClipNorm)
			count++
		}
		if count > 0 {
			lastEpochLoss = total / float64(count)
		}
		if m.o != nil {
			m.o.Histogram("bert.mlm.epoch").ObserveSince(epochStart)
			m.o.Gauge("bert.mlm.loss").Set(lastEpochLoss)
			m.o.Counter("bert.mlm.epochs.total").Inc()
		}
	}
	// The MLM head's transposes and logits are the tape's largest records:
	// drop its storage rather than keep it for the model's lifetime.
	m.tape = nn.Tape{}
	return lastEpochLoss
}

// mlmStep is one masked-language-model update on a sentence: encode the
// masked ids, score every target position against its original id through
// the MLM head (one GEMM over the targets, forward and backward, on the
// encoder's tape), then backpropagate, clip and step. It returns the mean
// loss over the targets. The head's weight gradient folds the targets in
// their order, as the per-target Forward/Backward it replaces did, so every
// update is bit-identical to it.
func (m *Model) mlmStep(opt nn.Optimizer, params []*nn.Param, ids, masked, targets []int, clipNorm float64) float64 {
	nn.ZeroGrads(params)
	hs := m.Encode(masked)
	t := &m.tape
	th := t.MatRaw(len(targets), m.Cfg.Dim)
	for i, pos := range targets {
		copy(th.Row(i), hs.Row(pos))
	}
	logits := m.MLMHead.ForwardRows(th, &t.Arena, t)
	dLogits := t.MatRaw(len(targets), logits.Cols)
	var loss float64
	for i, pos := range targets {
		loss += nn.SoftmaxCE(dLogits.Row(i), logits.Row(i), ids[pos])
	}
	dth := m.MLMHead.BackwardRows(t, dLogits)
	dhs := t.Mat(hs.Rows, m.Cfg.Dim)
	for i, pos := range targets {
		dhs.Row(pos).Add(dth.Row(i))
	}
	m.Backward(dhs)
	nn.ClipGrads(params, clipNorm)
	opt.Step(params)
	return loss / float64(len(targets))
}
