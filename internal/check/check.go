// Package check is the correctness harness of the reproduction: differential
// oracles, property-based (metamorphic) checks, and a deterministic corpus
// generator that together make the paper's invariants loud when they break.
//
// Three layers, all reusable from tests, `make check`, and future tooling:
//
//   - Differential oracles (oracles.go) compare two implementations or two
//     execution strategies of the same computation — serial vs parallel
//     Index.Build, prepared vs string-walking similarity, persisted vs
//     rebuilt index,
//     single-goroutine vs concurrent Query — and report the first divergent
//     posting or rank through the structural diff reporter (diff.go).
//
//   - Property checks (props.go) assert the paper's semantic invariants on
//     randomly generated Yelp-world corpora: θ-threshold monotonicity
//     (raising θ never admits new matches, §3.1/Algorithm 1), degree-of-truth
//     monotonicity (a review mention that strengthens a tag never lowers it,
//     Eq. 1), rank totality and permutation stability (§3.3), and
//     word-boundary slot filling.
//
//   - The generator (gen.go) drives both from a seeded PRNG — no wall-clock
//     or global randomness — so every failure is replayable from its seed.
//
// Native fuzz targets (go test -fuzz) for tokenization, utterance parsing,
// CRF decoding, and snapshot persistence live next to their packages; this
// package covers the cross-package pipeline invariants they cannot see.
package check

// Check is one named correctness check. Run returns nil on success and a
// diff-style error naming the first divergence otherwise.
type Check struct {
	Name string
	Run  func() error
}

// DefaultSuite returns the full harness at CI-friendly sizes, every check
// derived deterministically from seed. Running the suite for two different
// seeds exercises disjoint corpora.
func DefaultSuite(seed int64) []Check {
	return []Check{
		{"oracle/build-serial-vs-parallel", func() error {
			return BuildOracle(seed, 14, 48, []int{2, 4, 8})
		}},
		{"oracle/persist-round-trip", func() error {
			return PersistOracle(seed+1, 12, 40)
		}},
		{"oracle/prepared-vs-reference", func() error {
			return PreparedOracle(seed+2, 600)
		}},
		{"oracle/concurrent-query", func() error {
			return QueryOracle(seed+3, 8, 24)
		}},
		{"oracle/snapshot-pinning", func() error {
			return SnapshotOracle(seed+9, 8, 24)
		}},
		{"prop/theta-filter-monotonic", func() error {
			return ThetaFilterMonotonic(seed+4, 30)
		}},
		{"prop/theta-index-monotonic", func() error {
			return ThetaIndexMonotonic(seed+5, 12)
		}},
		{"prop/strengthen-monotonic", func() error {
			return StrengthenMonotonic(seed+6, 30)
		}},
		{"prop/rank-permutation-invariant", func() error {
			return RankPermutationInvariant(seed+7, 30)
		}},
		{"prop/slot-word-boundary", func() error {
			return SlotWordBoundary(seed+8, 60)
		}},
		{"oracle/extract-cache", func() error {
			return ExtractionCacheOracle(seed+10, 16)
		}},
		{"oracle/extract-batch", func() error {
			return ExtractBatchOracle(seed+11, 8, []int{2, 4, 8})
		}},
		{"oracle/extract-gen-swap", func() error {
			return ExtractGenSwapOracle(seed+12, 6, 12)
		}},
		{"oracle/gemm-blocked", func() error {
			return GemmBlockedOracle(seed + 14)
		}},
		{"oracle/ingest-quiesce", func() error {
			return IngestQuiesceOracle(seed+16, 90, 8)
		}},
		{"oracle/ingest-prefix", func() error {
			return IngestPrefixOracle(seed+17, 6, 48)
		}},
		{"oracle/rank-reference", func() error {
			return RankReferenceOracle(seed+20, 24)
		}},
		{"oracle/quant-drift", func() error {
			return QuantDriftOracle(seed+19, 60, 0.02)
		}},
	}
}
