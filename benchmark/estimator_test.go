package main

import (
	"math"
	"testing"
	"time"
)

func seq(from, to int) []float64 {
	var out []float64
	for i := from; i <= to; i++ {
		out = append(out, float64(i))
	}
	return out
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileNeedsSamplesBeyond(t *testing.T) {
	hundred := seq(1, 100)
	if v, ok := quantile(hundred, 0.5); v != 50 || !ok {
		t.Errorf("p50 of 1..100 = %v, %v", v, ok)
	}
	if v, ok := quantile(hundred, 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %v, %v; ten samples lie beyond it", v, ok)
	}
	if _, ok := quantile(hundred, 0.99); ok {
		t.Error("p99 of 100 samples has one sample beyond it and must not be printed")
	}
	if v, ok := quantile(seq(1, 1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v", v, ok)
	}
	if _, ok := quantile(nil, 0.5); ok {
		t.Error("a quantile of nothing")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(seq(1, 10))
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles of 1..10 = %v, %v", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q3 = quartiles([]float64{3, 1, 2})
	if !near(q1, 1) || !near(q3, 3) {
		t.Errorf("quartiles of 3,1,2 = %v, %v", q1, q3)
	}
	if got := spread(seq(1, 10)); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread of 1..10 = %v", got)
	}
}

// u is a one-op unit of a class that took lat ms (and as long on the wall
// and the CPU), with probes averaging probe µs around it.
func u(class int, lat, probe float64) unit {
	return unit{Class: class, LatMs: []float64{lat}, WallS: lat / 1e3, CPUS: lat / 1e3, AllocB: 2048, ProbeUs: probe}
}

// many is n copies of a unit.
func many(n int, x unit) []unit {
	out := make([]unit, n)
	for i := range out {
		out[i] = x
	}
	return out
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// Units count by what the probe saw, never by how long they took: a slow
// unit between fast probes counts, a fast unit between slow probes does not.
func TestGateSelectsByProbeAlone(t *testing.T) {
	units := many(minClean, u(0, 1.0, 10.0)) // the machine at full speed
	units = append(units,
		u(0, 9.0, 10.5),  // slow, but the probes say the machine was fine: the program's own doing
		u(0, 0.5, 20.0),  // fast, but in a slow spell: does not count
		u(0, 1.0, 10.61), // just outside the gate
	)
	clean, floor := cleanUnits(units, 1)
	if floor != 10 {
		t.Errorf("floor = %v, want the fastest probe", floor)
	}
	n := len(units)
	if !clean[n-3] || clean[n-2] || clean[n-1] || countTrue(clean) != minClean+1 {
		t.Errorf("clean = %v", clean)
	}
}

// A class with too few units inside the gate counts its least disturbed
// ones instead, so that no figure rests on one or two units.
func TestEveryClassKeepsEnoughUnits(t *testing.T) {
	units := many(20, u(0, 1, 10))
	for i := 0; i < 12; i++ {
		units = append(units, u(1, 5, 13+float64(i))) // never at full speed
	}
	clean, _ := cleanUnits(units, 2)
	if got := countTrue(clean[:20]); got != 20 {
		t.Errorf("%d of 20 clean units of class 0 count", got)
	}
	if got := countTrue(clean[20:28]); got != minClean {
		t.Errorf("%d of the %d least disturbed units of class 1 count", got, minClean)
	}
	if got := countTrue(clean[28:]); got != 0 {
		t.Errorf("%d of the most disturbed units of class 1 count", got)
	}
}

// Every class weighs what it weighs in the stream, however many of its
// units were clean: a rare long op is neither lost nor over-counted.
func TestEstimateWeighsClassesByFrequency(t *testing.T) {
	// 90 short ops (class 0) and 10 long ones (class 1). All short ones are
	// clean; of the long ones only the minimum counts, and the disturbed
	// ones took twice as long.
	units := many(90, u(0, 1, 10))
	for i := 0; i < 10; i++ {
		if i < minClean {
			units = append(units, u(1, 11, 10))
		} else {
			units = append(units, u(1, 22, 20))
		}
	}
	got := estimate(units, 2)
	// The clean stream: 90 × 1 ms + 10 × 11 ms = 200 ms for 100 ops.
	if !near(got.ThroughputS, 500) || !near(got.CPUMsPerOp, 2) || !near(got.AllocKBPerOp, 2) {
		t.Errorf("throughput, cpu, alloc = %v, %v, %v", got.ThroughputS, got.CPUMsPerOp, got.AllocKBPerOp)
	}
	if got.P50Ms != 1 || got.P90Ms != 1 {
		t.Errorf("p50, p90 = %v, %v: nine ops in ten take 1 ms", got.P50Ms, got.P90Ms)
	}
	if got.Ops != 100 || !near(got.CleanShare, 0.98) || got.ProbeUs != 10 {
		t.Errorf("ops %d clean share %v probe %v", got.Ops, got.CleanShare, got.ProbeUs)
	}
}

func TestEstimateQuantilesOverManyUnits(t *testing.T) {
	var units []unit
	for i := 1; i <= 1000; i++ {
		units = append(units, u(0, float64(i), 10))
	}
	got := estimate(units, 1)
	if got.P50Ms != 500 || got.P90Ms != 900 || got.P99Ms != 990 {
		t.Errorf("p50, p90, p99 = %v, %v, %v", got.P50Ms, got.P90Ms, got.P99Ms)
	}
	if got.BeyondP90 != 100 {
		t.Errorf("%d samples beyond p90, want 100", got.BeyondP90)
	}
	if p99 := estimate(units[:100], 1).P99Ms; p99 != 0 {
		t.Errorf("p99 of 100 ops = %v; one sample lies beyond it", p99)
	}
	// A unit of several ops (an ingest cycle) contributes every one of them.
	cycle := unit{Class: 0, LatMs: []float64{30, 20, 10}, WallS: 0.03, CPUS: 0.03, ProbeUs: 10}
	got = estimate([]unit{cycle, cycle}, 1)
	if got.P50Ms != 20 || !near(got.ThroughputS, 100) || got.Ops != 6 {
		t.Errorf("three-op units: p50 %v throughput %v ops %d", got.P50Ms, got.ThroughputS, got.Ops)
	}
}

func TestSegmentCosts(t *testing.T) {
	units := []unit{u(0, 1, 10), u(0, 2, 10), u(0, 3, 10), u(0, 10, 10), u(0, 20, 10)}
	got := segmentCosts(units, []int{3, 5})
	if len(got) != 2 || !near(got[0], 2) || !near(got[1], 15) {
		t.Errorf("wall time per op of the segments = %v", got)
	}
}

func TestSpreadAndDrift(t *testing.T) {
	flat := []float64{5, 5, 5, 5, 5, 5, 5, 5}
	if spread(flat) != 0 || drift(flat) != 1 {
		t.Errorf("flat run: spread %v drift %v", spread(flat), drift(flat))
	}
	slowing := []float64{10, 10, 11, 11, 12, 12, 13, 13}
	if got := drift(slowing); !near(got, 1.3) {
		t.Errorf("drift = %v, want last quarter ÷ first quarter = 1.3", got)
	}
	if drift([]float64{1, 2, 3}) != 1 {
		t.Error("fewer than four segments have no quarters to compare")
	}
}

func TestSelfTime(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{ID: 1, Name: "segment", Start: us(0), End: us(100)},
		{ID: 2, Parent: 1, Name: "op", Start: us(10), End: us(40)},
		{ID: 3, Parent: 1, Name: "op", Start: us(30), End: us(60)},    // overlaps the first: counted once
		{ID: 4, Parent: 1, Name: "late", Start: us(90), End: us(120)}, // clipped to its parent
		{ID: 5, Parent: 2, Name: "inner", Start: us(15), End: us(20)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 40 * time.Microsecond, // 100 − [10,60] − [90,100]
		2: 25 * time.Microsecond,
		3: 30 * time.Microsecond,
		4: 30 * time.Microsecond,
		5: 5 * time.Microsecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}
