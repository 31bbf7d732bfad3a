package bert

import (
	"math/rand"
	"testing"

	"saccs/internal/nn"
	"saccs/internal/race"
)

// TestMLMStepAllocs pins the allocation count of one warm masked-LM step at
// the served encoder's shape (DefaultConfig) on a 12-token sentence with
// two targets: Encode's per-layer caches and outputs, the head's logits and
// gradients, and the pooled training scratch. The optimizer step and the
// gradient clip allocate nothing.
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
		m.mlmStep(opt, params, ids, masked, targets, 5) // warm the scratch pool and Adam state
	}
	allocs := testing.AllocsPerRun(50, func() { m.mlmStep(opt, params, ids, masked, targets, 5) })
	limit := 166.0 // the count measured today: lower it when a change removes one
	if race.Enabled {
		limit *= 2 // sync.Pool drops a quarter of its Puts: pin only the gross regression
	}
	if allocs > limit {
		t.Fatalf("warm MLM step allocates %v times, want <= %v", allocs, limit)
	}
}
