package dmx

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fullSpec populates every Spec field that can be set together — the
// round-trip must preserve all of them.
func fullSpec() Spec {
	return Spec{
		Apps:       []string{"personal-info-redaction", "sound-detection"},
		Scale:      "test",
		Copies:     2,
		Placement:  "integrated",
		Gen:        4,
		Lanes:      64,
		Discipline: "srs",
		Admit:      32,
		FuseHops:   []FusePair{{App: 0, Hop: 0}},
		Faults:     "drx=5ms/200us,transient=0.01",
		FaultSeed:  42,
		Retry:      4,
		Deadline:   "500us",
		Arrival:    "poisson",
		Rate:       2500,
		Requests:   64,
		Seed:       7,
		SLO:        "30ms",
		Hosts:      2,
		Router:     "least",
		HostAdmit:  48,
		NetCore:    25e9,
		NetNIC:     12.5e9,
		NetLat:     "2us",
		Shards:     3,
	}
}

func TestSpecGoldenRoundTrip(t *testing.T) {
	got, err := MarshalSpec(fullSpec())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "spec_golden.json")
	if *updateAPI {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("spec JSON drifted from golden:\n--- got ---\n%s--- want ---\n%s"+
			"intentional? regenerate with: go test -run TestSpecGoldenRoundTrip -update .", got, want)
	}
	back, err := UnmarshalSpec(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, fullSpec()) {
		t.Fatalf("round trip lost fields:\n got %+v\nwant %+v", back, fullSpec())
	}
	again, err := MarshalSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) {
		t.Fatal("second marshal is not byte-identical to the golden")
	}
}

func TestUnmarshalSpecRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"arrival":"poisson","turbo":9}`, "turbo"},
		{"trailing data", `{"arrival":"poisson"}{"arrival":"open"}`, "trailing"},
		{"wrong type", `{"arrival":"poisson","hosts":"four"}`, "hosts"},
		{"not json", `arrival: poisson`, "parsing spec"},
	}
	for _, tc := range cases {
		if _, err := UnmarshalSpec([]byte(tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecResolveDefaults(t *testing.T) {
	fc, ts, pipes, err := Spec{Arrival: "poisson", Rate: 1000, Requests: 8}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if fc.Hosts != 1 || fc.Base.Placement != BumpInTheWire || fc.Base.Gen != Gen3 {
		t.Errorf("defaults: hosts=%d placement=%v gen=%v", fc.Hosts, fc.Base.Placement, fc.Base.Gen)
	}
	if len(pipes) != 5 {
		t.Errorf("default suite has %d pipelines, want 5", len(pipes))
	}
	if ts.Arrival != Poisson || ts.Rate != 1000 || ts.Requests != 8 {
		t.Errorf("traffic %+v", ts)
	}
}

func TestSpecResolveErrors(t *testing.T) {
	base := Spec{Arrival: "poisson", Scale: "test", Apps: []string{"sound-detection"}}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"fleet without arrival", func(s *Spec) { s.Arrival = ""; s.Hosts = 2 }, "hosts 2 needs an arrival"},
		{"bad arrival", func(s *Spec) { s.Arrival = "bursty" }, "bursty"},
		{"bad scale", func(s *Spec) { s.Scale = "huge" }, "scale"},
		{"bad placement", func(s *Spec) { s.Placement = "fpga" }, "placement"},
		{"bad gen", func(s *Spec) { s.Gen = 6 }, "gen"},
		{"bad discipline", func(s *Spec) { s.Discipline = "lifo" }, "discipline"},
		{"unknown app", func(s *Spec) { s.Apps = []string{"nope"} }, "known"},
		{"bad duration", func(s *Spec) { s.SLO = "fast" }, "slo"},
		{"bad router", func(s *Spec) { s.Router = "random" }, "policy"},
		{"negative copies", func(s *Spec) { s.Copies = -1 }, "copies"},
		{"negative retry", func(s *Spec) { s.Retry = -1 }, "spec retry -1"},
		{"negative hosts", func(s *Spec) { s.Hosts = -2 }, "spec hosts -2"},
		{"negative shards", func(s *Spec) { s.Hosts = 2; s.Shards = -1 }, "spec shards -1"},
		{"negative batch_max", func(s *Spec) { s.BatchMax = -8 }, "spec batch_max -8"},
		{"negative admit", func(s *Spec) { s.Admit = -1 }, "spec admit -1"},
		{"negative host_admit", func(s *Spec) { s.Hosts = 2; s.HostAdmit = -4 }, "spec host_admit -4"},
		{"cluster-only on one host", func(s *Spec) { s.NetLat = "2us"; s.Shards = 2 }, "hosts > 1"},
		{"drain on one host", func(s *Spec) { s.Drain = "3/2ms" }, "drain need hosts > 1"},
		{"drain trailing junk", func(s *Spec) { s.Hosts = 2; s.Drain = "3x/2ms" }, `drain "3x/2ms"`},
		{"drain fraction", func(s *Spec) { s.Hosts = 2; s.Drain = "3.5" }, `drain "3.5"`},
		{"drain zero", func(s *Spec) { s.Hosts = 2; s.Drain = "0" }, `drain "0"`},
		{"drain bad window", func(s *Spec) { s.Hosts = 2; s.Drain = "3/fast" }, "drain window"},
	}
	for _, tc := range cases {
		s := base
		tc.mutate(&s)
		if _, _, _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// No arrival is the one-request-per-app run: Resolve returns a zero
// TrafficSpec, while Simulate (a LoadReport) still needs an arrival.
// Drain wires the router's incident threshold and window.
func TestSpecResolveOneShotAndDrain(t *testing.T) {
	s := Spec{Apps: []string{"sound-detection"}, Scale: "test"}
	fc, ts, pipes, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, TrafficSpec{}) || fc.Hosts != 1 || len(pipes) != 1 {
		t.Errorf("one-shot spec: traffic %+v, hosts %d, %d pipelines", ts, fc.Hosts, len(pipes))
	}
	if _, err := s.Simulate(); err == nil || !strings.Contains(err.Error(), "arrival") {
		t.Errorf("Simulate without an arrival: %v", err)
	}
	s.Hosts, s.Arrival = 2, "poisson"
	for drain, want := range map[string]RouterConfig{
		"3/2ms": {DrainIncidents: 3, DrainWindow: 2 * Millisecond},
		"4":     {DrainIncidents: 4},
	} {
		s.Drain = drain
		fc, _, _, err := s.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if fc.Router != want {
			t.Errorf("drain %q: router %+v, want %+v", drain, fc.Router, want)
		}
	}
}

// A one-host spec must replay byte-identically through both the
// cluster path (Spec.Simulate) and direct resolution — and a fused,
// batched configuration must reach the system and run to completion.
func TestSpecSimulateReplayAndConflicts(t *testing.T) {
	s := Spec{
		Apps: []string{"personal-info-redaction"}, Scale: "test",
		Placement: "integrated", Arrival: "poisson", Rate: 2000, Requests: 8, Seed: 3,
	}
	rep, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	fc, ts, pipes, err := s.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SimulateCluster(fc, ts, pipes...)
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() != direct.String() {
		t.Error("Spec.Simulate diverges from resolving and simulating by hand")
	}
	s.Apps = []string{"pir-ner"}
	s.BatchWindow = "100us"
	s.Rate = 40000
	batched, err := s.Simulate()
	if err != nil {
		t.Fatal(err)
	}
	s.FuseHops = []FusePair{{App: 0, Hop: 0}}
	fused, err := s.Simulate()
	if err != nil {
		t.Fatalf("fuse+batch: %v", err)
	}
	if fused.String() == batched.String() {
		t.Error("fuse_hops did not reach the batched system")
	}
	for _, a := range fused.PerApp {
		if a.Completed != a.Requests || a.Batches == 0 {
			t.Errorf("%s: %d/%d completed over %d batches", a.App, a.Completed, a.Requests, a.Batches)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	for _, want := range []string{"200µs", "30ms", "2µs", "1.5ms"} {
		d, err := ParseDuration(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := FormatDuration(d); got != want {
			t.Errorf("FormatDuration(%s) = %q", want, got)
		}
	}
}
