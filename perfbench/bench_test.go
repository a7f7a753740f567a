package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dmx/internal/workload"
)

// tiny runs every workload's code path in well under a second.
var tiny = params{
	planScale: workload.TestScale,
	lanes:     []int{32, 64},
	planApps:  2,
	passes:    3,
	requests:  8,
	hosts:     2,
	shards:    2,
}

func TestWorkloadsRunWithoutFailures(t *testing.T) {
	var def struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			r, err := measureOnce(run, tiny, 7, nil, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if r.out.Ops == 0 || r.out.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", name, trace, r.out.Failed, r.out.Ops, r.errs)
			}
			if r.out.Requests == 0 || r.out.WallS <= 0 || r.out.RSSPeakMB <= 0 {
				t.Errorf("%s trace=%v: empty sample %+v", name, trace, r.out)
			}
			if !trace {
				continue
			}
			for _, m := range def.PerLayer {
				if _, ok := r.out.Layers[m.Name]; !ok && m.Name != "trace.overhead_s" {
					t.Errorf("%s: traced run lacks per-layer metric %s", name, m.Name)
				}
			}
		}
	}
}

func TestDigestsRepeat(t *testing.T) {
	for name, run := range workloads {
		a, err := measureOnce(run, tiny, 3, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		b, err := measureOnce(run, tiny, 3, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.out.Digests, b.out.Digests) {
			t.Errorf("%s: digests differ between runs:\n%v\n%v", name, a.out.Digests, b.out.Digests)
		}
	}
}

func TestPerturbedReferenceFailsOps(t *testing.T) {
	run := workloads["serve-open"]
	good, err := measureOnce(run, tiny, 5, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := measureOnce(run, tiny, 5, good.out.Digests, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.out.Failed != 0 {
		t.Fatalf("matching reference: %d failed ops: %v", r.out.Failed, r.errs)
	}
	bad := map[string]string{"serve-open": "0000000000000000"}
	r, err = measureOnce(run, tiny, 5, bad, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.out.Failed != tiny.passes {
		t.Errorf("perturbed reference: %d failed ops, want %d", r.out.Failed, tiny.passes)
	}
}

func TestAggregateCountsDigestDisagreementAcrossProcesses(t *testing.T) {
	s := func(d string) sample {
		return sample{Ops: 1, WallS: 1, Requests: 1, PassMS: []float64{1}, Digests: map[string]string{"k": d}}
	}
	res := aggregate(options{}, []sample{s("a"), s("a"), s("b")}, nil)
	if res.Failed != 1 || res.Correct || res.Attempted != 3 {
		t.Errorf("got failed=%d correct=%v attempted=%d, want 1 false 3", res.Failed, res.Correct, res.Attempted)
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	parent := []float64{10, 10.1, 9.9, 10, 10.2, 9.8, 10, 10.1, 9.9, 10}
	faster := []float64{8, 8.1, 7.9, 8, 8.2, 7.8, 8, 8.1, 7.9, 8}
	slower := []float64{12, 12.1, 11.9, 12, 12.2, 11.8, 12, 12.1, 11.9, 12}
	noisy := []float64{7, 13, 8, 12, 10, 9, 11, 10, 14, 6}
	// Spread wider than the bound, every run worse than every parent run,
	// the median worse by less than the bound: unresolved, not "same".
	slightlySlowerNoisy := []float64{10.3, 10.3, 10.3, 10.4, 10.5, 10.5, 11.6, 11.7, 11.7, 11.8}
	// Spread wider than the bound, but every run better than every
	// parent run.
	fasterNoisy := []float64{4, 6, 4, 6, 4, 6, 4, 6, 4, 6}
	for _, c := range []struct {
		change []float64
		want   string
	}{
		{faster, "better"},
		{slower, "worse"},
		{parent, "same"},
		{noisy, "unresolved"},
		{slightlySlowerNoisy, "unresolved"},
		{fasterNoisy, "better"},
	} {
		if got := judge(lower, parent, c.change).verdict; got != c.want {
			t.Errorf("judge(%v) = %s, want %s", c.change, got, c.want)
		}
	}
}
