// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic substrates: Table 2 (SACCS vs IR vs SIM),
// Table 3 (dataset inventory), Table 4 (tagger F1 sweep), Table 5 (pairing
// models), and Figures 1, 2 and 5. Each regenerator returns a structured
// result and can print the paper-shaped table to a writer. Fast scale runs
// in CI; Paper scale matches the paper's corpus sizes. Table 2 measures the
// served pipeline, trained by core.TrainTagger exactly as the saccs facade
// trains it; the other tables build their own encoder variants with
// core.BuildEncoder.
package experiments

import (
	"fmt"
	"io"

	"saccs/internal/datasets"
)

// Scale aliases datasets.Scale for callers.
type Scale = datasets.Scale

// Fast and Paper re-export the two scales.
const (
	Fast  = datasets.Fast
	Paper = datasets.Paper
)

// fprintf writes formatted output when w is non-nil.
func fprintf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format, args...)
	}
}
