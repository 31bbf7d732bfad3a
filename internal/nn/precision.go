package nn

import "fmt"

// Precision selects the inference arithmetic of the decode path. Training is
// always float64; Mixed only changes which frozen weight copies and kernels
// inference dispatches to.
type Precision int

const (
	// Float64 is the exact reference path: every layer in float64, the
	// arithmetic the golden snapshots and differential oracles are defined
	// against.
	Float64 Precision = iota
	// Mixed is the default serving mode: int8 GEMMs for the big projections
	// (transformer linears, LSTM input projection) with float32 kernels for
	// the drift-sensitive layers (LayerNorm, softmax, GELU, residuals, the
	// LSTM recurrence, the emission projection). CRF transitions and Viterbi
	// stay float64.
	Mixed
)

// ParsePrecision maps the config strings ("float64", "mixed"; "" defaults to
// mixed) onto a Precision.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "mixed":
		return Mixed, nil
	case "float64":
		return Float64, nil
	}
	return Float64, fmt.Errorf("nn: unknown precision %q (want float64 or mixed)", s)
}

func (p Precision) String() string {
	if p == Mixed {
		return "mixed"
	}
	return "float64"
}
