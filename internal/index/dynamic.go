package index

import "strings"

// This file implements the last future-work item of §7: "given the
// importance of thresholds in similarity assessments, it would be useful for
// SACCS to adjust these dynamically depending on the semantics of the
// subjective tags being compared."

// DynamicTheta computes a per-tag similarity threshold from a base value and
// the tag's semantic specificity: generic tags ("good food" — short, common
// opinion words) keep the base threshold, while specific multi-word tags
// ("true to its roots cuisine") lower it, because exact conceptual matches
// for rare phrasings are scarcer and near-misses should still count.
//
// The returned threshold is clamped to [base-0.15, base].
func DynamicTheta(base float64, tag string) float64 {
	words := strings.Fields(tag)
	specificity := 0.0
	if len(words) > 2 {
		specificity += 0.05 * float64(len(words)-2)
	}
	for _, w := range words {
		if len(w) >= 9 { // long, rare surface forms
			specificity += 0.03
		}
	}
	if specificity > 0.15 {
		specificity = 0.15
	}
	return base - specificity
}
