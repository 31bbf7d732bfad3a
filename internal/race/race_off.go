//go:build !race

package race

// Enabled is true when the build is instrumented by the race detector.
const Enabled = false
