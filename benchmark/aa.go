package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runAA is the A/A check: it runs the workload n times on the current tree,
// each run a fresh process with the next seed, and holds the runs against
// each other the way the driver holds a change against its parent. It prints
// each end-to-end metric's median, quartiles, spread (quartile distance ÷
// median) and worst pairwise difference beside the metric's bound, and
// returns non-zero when a spread is outside its bound or a run failed.
// setup_s is printed but not judged on its spread: it is measured once a run.
func runAA(o options, n int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	values := map[string][]float64{}
	bad := false
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		cmd := exec.Command(self,
			"-workload", o.workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-workdir", o.workDir)
		cmd.Stderr = os.Stderr
		outBytes, err := cmd.Output() // Output waits for the process to end
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: run %d (seed %d): %v\n", i+1, seed, err)
			return 2
		}
		var res result
		if err := json.Unmarshal(lastLine(outBytes), &res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: run %d (seed %d): no result line: %v\n", i+1, seed, err)
			return 2
		}
		fmt.Printf("run %d seed %d: attempted %d failed %d", i+1, seed, res.Attempted, res.Failed)
		for _, d := range endToEnd {
			v := res.Metrics[d.Name].Value
			values[d.Name] = append(values[d.Name], v)
			fmt.Printf("  %s %.4f", d.Name, v)
		}
		fmt.Println()
		if !res.Correct {
			bad = true
		}
	}
	fmt.Printf("\nA/A of %s over %d runs (seeds %d..%d)\n", o.workload, n, o.seed, o.seed+int64(n)-1)
	fmt.Printf("%-18s %-5s %12s %12s %12s %8s %8s %6s\n", "metric", "unit", "median", "q1", "q3", "spread", "worst", "bound")
	for _, d := range endToEnd {
		xs := values[d.Name]
		q1, q3 := quartiles(xs)
		sp, worst := spread(xs), ratio(slices.Max(xs)-slices.Min(xs), median(xs))
		verdict := "ok"
		switch {
		case d.Name == "setup_s":
			verdict = "not judged"
		case math.IsNaN(sp) || sp > d.Bound:
			verdict, bad = "OUTSIDE", true
		}
		fmt.Printf("%-18s %-5s %12.4f %12.4f %12.4f %8.4f %8.4f %6.2f  %s\n",
			d.Name, d.Unit, median(xs), q1, q3, sp, worst, d.Bound, verdict)
	}
	if bad {
		return 1
	}
	return 0
}

// lastLine is the last non-empty line of a program's output.
func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}
