package traffic

import (
	"strings"
	"testing"

	"dmx/internal/obs"
	"dmx/internal/sim"
)

func TestParseArrivalRoundTrips(t *testing.T) {
	for _, a := range []Arrival{ClosedLoop, OpenLoop, Poisson} {
		got, err := ParseArrival(a.String())
		if err != nil {
			t.Fatalf("ParseArrival(%q): %v", a, err)
		}
		if got != a {
			t.Errorf("ParseArrival(%q) = %v", a, got)
		}
	}
	if _, err := ParseArrival("uniform"); err == nil {
		t.Error("ParseArrival accepted an unknown process")
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string // substring of the error, "" = valid
	}{
		{"closed ok", Spec{Arrival: ClosedLoop, Requests: 2}, ""},
		{"poisson ok", Spec{Arrival: Poisson, Rate: 100, Requests: 8}, ""},
		{"too few requests", Spec{Arrival: ClosedLoop, Requests: 1}, "at least 2 requests"},
		{"open needs rate", Spec{Arrival: OpenLoop, Requests: 4}, "positive rate"},
		{"poisson negative rate", Spec{Arrival: Poisson, Rate: -1, Requests: 4}, "positive rate"},
		{"bad arrival", Spec{Arrival: Arrival(9), Requests: 4}, "unknown arrival"},
		{"negative deadline", Spec{Arrival: ClosedLoop, Requests: 4, Deadline: -sim.Microsecond}, "negative deadline"},
		{"negative app deadline", Spec{Arrival: ClosedLoop, Requests: 4,
			AppDeadlines: []sim.Duration{sim.Millisecond, -sim.Microsecond}}, "for app 1"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want substring %q", c.name, err, c.want)
		}
	}
}

func TestDeadlineForPrefersPerAppBudget(t *testing.T) {
	s := Spec{Arrival: ClosedLoop, Requests: 2, Deadline: 10 * sim.Millisecond,
		AppDeadlines: []sim.Duration{2 * sim.Millisecond, 0}}
	if d := s.DeadlineFor(0); d != 2*sim.Millisecond {
		t.Errorf("DeadlineFor(0) = %v, want 2ms", d)
	}
	// A zero entry and an out-of-range app both fall back to Deadline.
	if d := s.DeadlineFor(1); d != 10*sim.Millisecond {
		t.Errorf("DeadlineFor(1) = %v, want fallback 10ms", d)
	}
	if d := s.DeadlineFor(5); d != 10*sim.Millisecond {
		t.Errorf("DeadlineFor(5) = %v, want fallback 10ms", d)
	}
}

func TestRejectedAndBatchesRenderOnlyWhenPresent(t *testing.T) {
	rep := LoadReport{PerApp: []AppLoad{{App: "svc", Requests: 8, Completed: 8}}}
	base := rep.String()
	if strings.Contains(base, "rejected") || strings.Contains(base, "batches") {
		t.Fatalf("clean report leaks admission/batching lines:\n%s", base)
	}
	rep.PerApp[0].Rejected = 3
	rep.PerApp[0].Batches = 2
	rep.PerApp[0].BatchedRequests = 5
	got := rep.String()
	if !strings.Contains(got, "rejected 3 (admission)") {
		t.Errorf("rejection count missing:\n%s", got)
	}
	if !strings.Contains(got, "batches 2 carrying 5 requests (mean size 2.50)") {
		t.Errorf("batch line missing:\n%s", got)
	}
}

func TestClosedLoopArrivalsAreZero(t *testing.T) {
	s := Spec{Arrival: ClosedLoop, Requests: 5}
	for _, d := range s.Arrivals(0) {
		if d != 0 {
			t.Fatalf("closed-loop arrival offset %v, want 0", d)
		}
	}
}

func TestOpenLoopArrivalsAreExactGrid(t *testing.T) {
	s := Spec{Arrival: OpenLoop, Rate: 1000, Requests: 4}
	got := s.Arrivals(0)
	for i, d := range got {
		want := sim.Duration(i) * sim.Millisecond
		if d != want {
			t.Errorf("open-loop arrival %d = %v, want %v", i, d, want)
		}
	}
}

func TestPoissonArrivalsDeterministicPerSeed(t *testing.T) {
	s := Spec{Arrival: Poisson, Rate: 2000, Requests: 64, Seed: 7}
	a := s.Arrivals(3)
	b := s.Arrivals(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across identical calls: %v vs %v", i, a[i], b[i])
		}
	}
	if a[0] != 0 {
		t.Errorf("first Poisson arrival = %v, want 0", a[0])
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrivals not monotone at %d: %v < %v", i, a[i], a[i-1])
		}
	}
	// A different seed or a different app index yields a different
	// timeline (streams are independent).
	s2 := s
	s2.Seed = 8
	if same(a, s2.Arrivals(3)) {
		t.Error("different seeds produced identical timelines")
	}
	if same(a, s.Arrivals(4)) {
		t.Error("different apps share one arrival timeline")
	}
}

func TestPoissonMeanGapNearRate(t *testing.T) {
	s := Spec{Arrival: Poisson, Rate: 1000, Requests: 4096, Seed: 42}
	a := s.Arrivals(0)
	mean := a[len(a)-1].Seconds() / float64(len(a)-1)
	want := 1.0 / s.Rate
	if mean < want*0.9 || mean > want*1.1 {
		t.Errorf("mean inter-arrival %.6g s, want within 10%% of %.6g s", mean, want)
	}
}

func same(a, b []sim.Duration) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLoadReportStringDeterministic(t *testing.T) {
	mk := func() LoadReport {
		r := LoadReport{Arrival: Poisson, Seed: 9, Makespan: 42 * sim.Microsecond}
		r.PerApp = []AppLoad{{App: "sound-detection", Requests: 16, Completed: 16, Offered: 1000}}
		for i := 1; i <= 16; i++ {
			r.PerApp[0].Latency.Add(obs.Duration(sim.Duration(i) * sim.Microsecond))
		}
		r.Finalize()
		return r
	}
	a, b := mk().String(), mk().String()
	if a != b {
		t.Fatalf("LoadReport.String not deterministic:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a, "sound-detection") || !strings.Contains(a, "p99") {
		t.Errorf("report missing expected fields:\n%s", a)
	}
}

func TestFinalizeQuantileOrdering(t *testing.T) {
	r := LoadReport{PerApp: []AppLoad{{App: "x"}}}
	for i := 1; i <= 1000; i++ {
		r.PerApp[0].Latency.Add(obs.Duration(sim.Duration(i) * sim.Microsecond))
	}
	r.Finalize()
	a := r.PerApp[0]
	if !(a.P50 <= a.P95 && a.P95 <= a.P99 && a.P99 <= a.Max) {
		t.Errorf("quantiles out of order: p50=%v p95=%v p99=%v max=%v", a.P50, a.P95, a.P99, a.Max)
	}
	if a.Max != 1000*sim.Microsecond {
		t.Errorf("Max = %v, want 1ms", a.Max)
	}
}

func TestAppLoadRetire(t *testing.T) {
	ms := func(n int64) sim.Time { return sim.Time(sim.Duration(n) * sim.Millisecond) }
	lat := func(n int64) obs.Duration { return obs.Duration(sim.Duration(n) * sim.Millisecond) }
	type retirement struct {
		o                    Outcome
		retries, timeouts    int
		start, end, deadline sim.Time
	}
	type counts struct {
		completed, missed, degraded, abandoned, rejected, retries, timeouts int
		lat, clean, slow                                                    int64 // histogram sample counts
		sum                                                                 obs.Duration
		first, last                                                         sim.Time
		achieved                                                            float64
	}
	cases := []struct {
		name string
		rets []retirement
		want counts
	}{
		{"clean", []retirement{{o: OutcomeClean, start: ms(1), end: ms(3)}},
			counts{completed: 1, lat: 1, clean: 1, sum: lat(2), first: ms(3), last: ms(3)}},
		{"degraded", []retirement{{o: OutcomeDegraded, retries: 1, start: ms(1), end: ms(3)}},
			counts{completed: 1, degraded: 1, retries: 1, lat: 1, slow: 1, sum: lat(2), first: ms(3), last: ms(3)}},
		{"rejected leaves no sample", []retirement{{o: OutcomeRejected, end: ms(3), deadline: ms(1)}},
			counts{rejected: 1}},
		{"abandoned leaves no sample", []retirement{{o: OutcomeAbandoned, retries: 2, timeouts: 1, start: ms(1), end: ms(9), deadline: ms(2)}},
			counts{abandoned: 1, retries: 2, timeouts: 1}},
		{"end at deadline is met", []retirement{{o: OutcomeClean, start: ms(1), end: ms(4), deadline: ms(4)}},
			counts{completed: 1, lat: 1, clean: 1, sum: lat(3), first: ms(4), last: ms(4)}},
		{"end past deadline is missed", []retirement{{o: OutcomeClean, start: ms(1), end: ms(4) + 1, deadline: ms(4)}},
			counts{completed: 1, missed: 1, lat: 1, clean: 1, sum: lat(3) + 1, first: ms(4) + 1, last: ms(4) + 1}},
		{"zero deadline never misses", []retirement{{o: OutcomeClean, start: ms(1), end: ms(90)}},
			counts{completed: 1, lat: 1, clean: 1, sum: lat(89), first: ms(90), last: ms(90)}},
		{"rate over the completion window", []retirement{
			{o: OutcomeClean, end: ms(1)}, {o: OutcomeClean, end: ms(2)}, {o: OutcomeDegraded, end: ms(3)}},
			counts{completed: 3, degraded: 1, lat: 3, clean: 2, slow: 1, sum: lat(6), first: ms(1), last: ms(3), achieved: 1000}},
		{"out-of-order completions", []retirement{{o: OutcomeClean, end: ms(3)}, {o: OutcomeClean, end: ms(1)}},
			counts{completed: 2, lat: 2, clean: 2, sum: lat(4), first: ms(1), last: ms(3), achieved: 500}},
		{"one instant has no rate", []retirement{
			{o: OutcomeClean, end: ms(5)}, {o: OutcomeClean, end: ms(5)}, {o: OutcomeClean, end: ms(5)}},
			counts{completed: 3, lat: 3, clean: 3, sum: lat(15), first: ms(5), last: ms(5)}},
	}
	for _, c := range cases {
		var a AppLoad
		for _, r := range c.rets {
			a.Retire(r.o, r.retries, r.timeouts, r.start, r.end, r.deadline)
		}
		got := counts{a.Completed, a.Missed, a.Degraded, a.Abandoned, a.Rejected, a.Retries, a.Timeouts,
			a.Latency.Count, a.CleanLat.Count, a.DegradedLat.Count, a.Latency.Sum, a.First, a.Last, a.Achieved}
		if got != c.want {
			t.Errorf("%s:\n got %+v\nwant %+v", c.name, got, c.want)
		}
	}
}
