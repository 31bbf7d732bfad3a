package obs

import (
	"fmt"
	"testing"
	"time"
)

func TestSamplerDecide(t *testing.T) {
	var nilSampler *Sampler
	if ok, why := nilSampler.Decide(StatusError, time.Hour, false); !ok || why != "all" {
		t.Fatalf("nil sampler: %v %q, want pass-through", ok, why)
	}

	s := &Sampler{HeadN: 2, Slow: 100 * time.Millisecond}
	cases := []struct {
		status string
		d      time.Duration
		head   bool
		want   bool
		why    string
	}{
		{StatusError, time.Millisecond, false, true, "error"},
		{StatusDeadline, time.Millisecond, false, true, "error"},
		{StatusOK, 100 * time.Millisecond, false, true, "slow"},
		{StatusOK, time.Second, false, true, "slow"},
		{StatusOK, time.Millisecond, true, true, "head"},
		{StatusOK, time.Millisecond, false, false, ""},
		// Precedence: an errored slow head-sampled request is retained as "error".
		{StatusError, time.Second, true, true, "error"},
	}
	for _, c := range cases {
		ok, why := s.Decide(c.status, c.d, c.head)
		if ok != c.want || why != c.why {
			t.Errorf("Decide(%s, %v, head=%v) = %v %q, want %v %q",
				c.status, c.d, c.head, ok, why, c.want, c.why)
		}
	}
}

func TestSamplerHeadEveryNth(t *testing.T) {
	s := &Sampler{HeadN: 4}
	hits := 0
	for i := 0; i < 100; i++ {
		if s.SampleHead() {
			hits++
		}
	}
	if hits != 25 {
		t.Fatalf("head-sampled %d of 100 at N=4, want 25", hits)
	}
	none := &Sampler{}
	for i := 0; i < 10; i++ {
		if none.SampleHead() {
			t.Fatal("HeadN=0 sampler head-sampled a request")
		}
	}
}

func TestSamplerRollingP99(t *testing.T) {
	hist := &Histogram{}
	s := &Sampler{hist: hist}
	// Below samplerMinCount observations the adaptive rule must stay off.
	for i := 0; i < samplerMinCount-1; i++ {
		hist.Observe(time.Millisecond)
	}
	if s.IsSlow(time.Hour) {
		t.Fatal("adaptive rule fired below the minimum count")
	}
	hist.Observe(time.Millisecond)
	if !s.IsSlow(time.Hour) {
		t.Fatal("an hour-long request not slow against a 1ms p99")
	}
	if s.IsSlow(time.Microsecond) {
		t.Fatal("a 1µs request marked slow against a 1ms p99")
	}
	// The check reads the live counters: no snapshot, no allocation.
	if allocs := testing.AllocsPerRun(100, func() { s.IsSlow(time.Millisecond) }); allocs != 0 {
		t.Fatalf("IsSlow allocates %v times per call", allocs)
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

func TestSLOBurn(t *testing.T) {
	reg := NewRegistry()
	slo := NewSLO(reg, 100*time.Millisecond)
	for i := 0; i < 98; i++ {
		slo.Record(time.Millisecond, StatusOK)
	}
	slo.Record(time.Second, StatusOK)         // over target → bad
	slo.Record(time.Millisecond, StatusError) // error → bad
	// Client cancellation under target stays good: the service met its side.
	slo.Record(time.Millisecond, StatusCancelled)

	if good := reg.Counter("slo.requests.good.total").Value(); good != 99 {
		t.Fatalf("good: %d, want 99", good)
	}
	if bad := reg.Counter("slo.requests.bad.total").Value(); bad != 2 {
		t.Fatalf("bad: %d, want 2", bad)
	}
	// 2 bad / 101 total against a 1% budget → burn ≈ 1.98.
	burn := reg.Gauge("slo.error_budget.burn").Value()
	want := (2.0 / 101.0) / 0.01
	if diff := burn - want; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("burn: %g, want %g", burn, want)
	}
	if target := reg.Gauge("slo.target.seconds").Value(); target != 0.1 {
		t.Fatalf("target gauge: %g", target)
	}
	var nilSLO *SLO
	nilSLO.Record(time.Second, StatusOK) // must not panic
	_ = fmt.Sprint(nilSLO)
}
