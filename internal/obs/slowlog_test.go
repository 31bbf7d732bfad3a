package obs

import (
	"testing"
	"time"
)

// TestSlowRuleRollingP99 pins the slow log's latency rule: the threshold,
// the rolling p99 once the histogram holds slowMinCount observations, and
// neither without a threshold.
func TestSlowRuleRollingP99(t *testing.T) {
	hist := &Histogram{}
	r := slowRule{threshold: 2 * time.Hour, p99: hist}
	// Below slowMinCount observations the adaptive rule must stay off.
	for i := 0; i < slowMinCount-1; i++ {
		hist.Observe(time.Millisecond)
	}
	if r.slow(time.Hour) {
		t.Fatal("adaptive rule fired below the minimum count")
	}
	hist.Observe(time.Millisecond)
	if !r.slow(time.Hour) {
		t.Fatal("an hour-long request not slow against a 1ms p99")
	}
	if r.slow(time.Microsecond) {
		t.Fatal("a 1µs request marked slow against a 1ms p99")
	}
	if !(slowRule{threshold: time.Microsecond, p99: hist}).slow(time.Microsecond) {
		t.Fatal("a request at the threshold not slow")
	}
	if (slowRule{}).slow(time.Hour) {
		t.Fatal("the zero rule marked a request slow")
	}
	// The check reads the live counters: no snapshot, no allocation.
	if allocs := testing.AllocsPerRun(100, func() { r.slow(time.Millisecond) }); allocs != 0 {
		t.Fatalf("slow allocates %v times per call", allocs)
	}
}

func TestSlowLogKeepsWorstK(t *testing.T) {
	l := NewSlowLog(4)
	// Insert in shuffled order; only the 4 slowest must survive.
	for _, ms := range []int{5, 90, 10, 70, 30, 100, 20, 80, 40, 60} {
		l.Insert(Event{Kind: "query", Duration: time.Duration(ms) * time.Millisecond})
	}
	worst := l.Worst()
	if len(worst) != 4 {
		t.Fatalf("kept %d, want 4", len(worst))
	}
	for i, wantMs := range []int{100, 90, 80, 70} {
		if got := worst[i].Duration; got != time.Duration(wantMs)*time.Millisecond {
			t.Fatalf("worst[%d] = %v, want %dms (full log: %v)", i, got, wantMs, worst)
		}
	}
	var nilLog *SlowLog
	nilLog.Insert(Event{})
	if nilLog.Worst() != nil {
		t.Fatal("nil slow log not inert")
	}
}
