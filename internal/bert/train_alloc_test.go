package bert

import (
	"math/rand"
	"testing"

	"saccs/internal/nn"
)

// TestMLMStepAllocs pins the allocation count of one warm masked-LM step at
// the served encoder's shape (DefaultConfig) on a 12-token sentence with
// two targets. The forward's records, the head's logits and every gradient
// come from the model's warm tape — nn.SoftmaxCE writes each target's
// gradient straight into its row — and the optimizer step and the gradient
// clip allocate nothing.
func TestMLMStepAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m := New(rng, DefaultConfig(), tinyVocab())
	words := []string{"the", "food", "is", "delicious", "and", "the", "staff", "is", "friendly", "and", "the", "."}
	ids := m.Vocab.Encode(words)
	masked := append([]int(nil), ids...)
	targets := []int{3, 8}
	for _, pos := range targets {
		masked[pos] = m.Vocab.ID("[MASK]")
	}
	opt := nn.NewAdam(1e-3)
	params := m.Params()
	for i := 0; i < 3; i++ {
		m.mlmStep(opt, params, ids, masked, targets, 5) // warm the tape and Adam state
	}
	allocs := testing.AllocsPerRun(50, func() { m.mlmStep(opt, params, ids, masked, targets, 5) })
	// The step touches no sync.Pool, so -race measures the same count.
	limit := 0.0 // the count measured today: lower it when a change removes one
	if allocs > limit {
		t.Fatalf("warm MLM step allocates %v times, want <= %v", allocs, limit)
	}
}
