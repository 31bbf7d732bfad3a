//go:build race

// Package race reports whether the race detector instruments this build, so
// allocation-count pins can skip under it: the instrumented runtime allocates
// on its own behalf and sync.Pool deliberately drops a share of what it is
// given.
package race

// Enabled is true when the build is instrumented by the race detector.
const Enabled = true
