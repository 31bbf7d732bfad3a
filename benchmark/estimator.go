package main

import (
	"math"
	"sort"
)

// unit is one measured piece of work — an op, or on ingest_stream a whole
// cycle of appends — with what it cost the process and what the machine was
// doing meanwhile.
type unit struct {
	Class  int       // units of one class do the same work
	LatMs  []float64 // latency of each op in the unit
	WallS  float64   // unit start → unit end, probes excluded
	CPUS   float64   // process user+sys CPU over the same interval, probes excluded
	AllocB float64   // bytes allocated over the same interval
	// ProbeUs is the mean duration of the probes run just before, during and
	// just after the unit.
	ProbeUs float64
}

// gate is how much slower than the run's fastest probe the probes around a
// unit may be, on average, for the unit to count. One probe in a slow spell
// doubles; a unit between two probes must have both at full speed, a cycle of
// 64 appends at most three slow ones.
const gate = 1.06

// minBeyond is the number of samples that must lie beyond a percentile for it
// to be printed at all.
const minBeyond = 10

// quantile returns the q-quantile of a sample by nearest rank, and whether at
// least minBeyond samples lie beyond it.
func quantile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the plain median of an unsorted sample (0 for an empty one).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quartiles returns the first and third quartile of a sample, by the same
// rule as Python's statistics.quantiles(values, n=4) — the "exclusive"
// method the driver uses.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of a sample as a share of its
// median.
func spread(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / m
}

// drift is the mean of the last quarter of values over the mean of the first
// quarter: 1 when the measured phase is stationary.
func drift(values []float64) float64 {
	q := len(values) / 4
	if q == 0 {
		return 1
	}
	first, last := mean(values[:q]), mean(values[len(values)-q:])
	if first == 0 {
		return 1
	}
	return last / first
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timing is what the units of a phase say about the workload.
type timing struct {
	P50Ms, P90Ms float64 // over the ops of clean units
	P99Ms        float64 // 0 without ten samples beyond it
	BeyondP90    int     // clean samples beyond P90Ms
	ThroughputS  float64 // ops ÷ wall time of the clean units
	CPUMsPerOp   float64
	AllocKBPerOp float64
	Ops          int     // every op of the phase, clean or not
	CleanShare   float64 // share of units that count
	ProbeUs      float64 // the run's fastest probe: the machine at full speed
}

// minClean is the least number of units of a class that count: a class with
// fewer units within the gate counts its minClean least disturbed ones
// instead, so that no figure rests on one or two units.
const minClean = 8

// cleanUnits marks the units that ran while the machine was at full speed:
// those whose probes averaged within gate of the fastest probe of the phase.
// Selection is by the probe alone — a fixed piece of arithmetic that knows
// nothing of the program — never by how long the unit itself took, so it
// cannot favour lucky inputs or leave out the program's own periodic work.
func cleanUnits(units []unit, classes int) (clean []bool, floor float64) {
	clean = make([]bool, len(units))
	if len(units) == 0 {
		return clean, 0
	}
	floor = math.Inf(1)
	byClass := make([][]int, classes)
	for i, u := range units {
		floor = math.Min(floor, u.ProbeUs)
		byClass[u.Class] = append(byClass[u.Class], i)
	}
	for _, members := range byClass {
		sort.SliceStable(members, func(a, b int) bool { return units[members[a]].ProbeUs < units[members[b]].ProbeUs })
		for rank, i := range members {
			clean[i] = rank < minClean || units[i].ProbeUs <= gate*floor
		}
	}
	return clean, floor
}

// estimate reduces the units of a phase to the run's figures. Units are
// stratified by class: every class weighs what it weighs in the stream —
// its share of all units, clean or not — however many of its units were
// clean, so a long, rare op (the append that publishes, one op in 1 024)
// is neither lost nor over-counted when few of its instances count.
func estimate(units []unit, classes int) timing {
	var t timing
	clean, floor := cleanUnits(units, classes)
	t.ProbeUs = floor
	all := make([]float64, classes)
	counted := make([]float64, classes)
	nClean := 0
	for i, u := range units {
		t.Ops += len(u.LatMs)
		all[u.Class]++
		if clean[i] {
			counted[u.Class]++
			nClean++
		}
	}
	if nClean == 0 {
		return t
	}
	t.CleanShare = float64(nClean) / float64(len(units))

	type sample struct{ ms, weight float64 }
	var samples []sample
	var ops, wall, cpu, alloc float64
	for i, u := range units {
		if !clean[i] {
			continue
		}
		w := all[u.Class] / counted[u.Class]
		ops += w * float64(len(u.LatMs))
		wall += w * u.WallS
		cpu += w * u.CPUS
		alloc += w * u.AllocB
		for _, l := range u.LatMs {
			samples = append(samples, sample{l, w})
		}
	}
	t.ThroughputS = ratio(ops, wall)
	t.CPUMsPerOp = 1e3 * ratio(cpu, ops)
	t.AllocKBPerOp = ratio(alloc/1024, ops)

	// Weighted nearest-rank quantiles: the smallest latency at which the
	// weight at or below reaches q of the whole.
	sort.Slice(samples, func(i, j int) bool { return samples[i].ms < samples[j].ms })
	at := func(q float64) (ms float64, beyond int) {
		acc := 0.0
		for i, s := range samples {
			acc += s.weight
			if acc >= q*ops-1e-9 {
				return s.ms, len(samples) - 1 - i
			}
		}
		return samples[len(samples)-1].ms, 0
	}
	t.P50Ms, _ = at(0.5)
	t.P90Ms, t.BeyondP90 = at(0.9)
	if v, beyond := at(0.99); beyond >= minBeyond {
		t.P99Ms = v
	}
	return t
}
