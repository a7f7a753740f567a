package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dmx"
	"dmx/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// opts is the golden command line: one paper-scale sound-detection
// request with the per-app breakdown and the event trace.
func opts() []string {
	return []string{"-app", "sound-detection", "-v", "-trace"}
}

// The full CLI output — event trace, report, per-app breakdown, energy
// line — must be byte-stable run over run. This pins the fix for the
// nondeterministic energy-breakdown ordering (map iteration) and the
// single-writer routing of the trace and the report.
func TestRunOutputIsGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(opts(), &buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sound_bump.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (run with -update to regenerate)\ngot:\n%s", golden, buf.String())
	}
}

func TestRunOutputIsDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(opts(), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(opts(), &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical runs produced different output")
	}
}

// Cluster-only flags on a single-host run, and host or app counts below
// one, must error out before printing anything rather than silently
// shape (or not shape) the report — and never panic.
func TestClusterOnlyFlagsRejected(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr bool
	}{
		{"net-lat-single-host", []string{"-net-lat", "2us"}, true},
		{"net-core-single-host", []string{"-net-core", "50e9"}, true},
		{"net-nic-single-host", []string{"-net-nic", "12.5e9"}, true},
		{"shards-single-host", []string{"-shards", "4"}, true},
		{"negative-shards-single-host", []string{"-shards", "-1"}, true},
		{"host-admit-single-host", []string{"-host-admit", "8"}, true},
		{"drain-single-host", []string{"-drain", "3/2ms"}, true},
		{"zero-hosts", []string{"-hosts", "0"}, true},
		{"negative-hosts", []string{"-hosts", "-3"}, true},
		{"zero-apps", []string{"-apps", "0"}, true},
		{"negative-apps", []string{"-apps", "-1"}, true},
		{"shards-default-ok", []string{"-shards", "1"}, false},
		{"net-multi-host-ok", []string{"-hosts", "2", "-arrival", "poisson", "-router", "score",
			"-rate", "2000", "-requests", "4", "-net-lat", "2us", "-shards", "3"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(append([]string{"-app", "sound-detection"}, tc.args...), &buf)
			if tc.wantErr && err == nil {
				t.Error("flag combination accepted; want an error")
			}
			if tc.wantErr && buf.Len() > 0 {
				t.Errorf("rejected command line printed output first:\n%s", buf.String())
			}
			if !tc.wantErr && err != nil {
				t.Errorf("valid flag combination rejected: %v", err)
			}
		})
	}
}

// The CLI's fleet output must be byte-identical at any -shards value:
// the flag buys wall-clock, never different physics.
func TestClusterShardsOutputIdentical(t *testing.T) {
	fleet := func(shards int) string {
		var buf bytes.Buffer
		if err := run([]string{"-app", "sound-detection", "-hosts", "4", "-arrival", "poisson",
			"-router", "score", "-rate", "8000", "-requests", "32", "-seed", "9",
			"-net-nic", "12.5e9", "-net-lat", "2us", "-shards", strconv.Itoa(shards)}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	seq := fleet(1)
	for _, n := range []int{2, 4, 8} {
		if got := fleet(n); got != seq {
			t.Errorf("-shards %d output differs from sequential:\n%s\nvs:\n%s", n, got, seq)
		}
	}
}

// -trace-out must emit a file that the validator accepts and that is
// byte-identical across runs.
func TestTraceOutValidatesAndIsStable(t *testing.T) {
	dir := t.TempDir()
	capture := func(name string) []byte {
		path := filepath.Join(dir, name)
		if err := run([]string{"-app", "sound-detection", "-stats", "-trace-out", path}, io.Discard); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first := capture("a.json")
	if _, err := obs.ValidateTrace(first); err != nil {
		t.Fatalf("exported trace does not validate: %v", err)
	}
	if !bytes.Equal(first, capture("b.json")) {
		t.Error("trace bytes differ between identical runs")
	}
}

// writeSpec saves a Spec document for -spec and returns its path.
func writeSpec(t *testing.T, s dmx.Spec) string {
	t.Helper()
	doc, err := dmx.MarshalSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// The command line builds a Spec: the -spec document is the base, a flag
// given explicitly overwrites just its field, the CLI defaults survive a
// sparse document, and incoherent documents fail in Resolve with a
// message naming the problem.
func TestApplySpecMerge(t *testing.T) {
	spec := dmx.Spec{
		Apps: []string{"personal-info-redaction"}, Scale: "test", Copies: 3,
		Placement: "integrated", Gen: 4, Lanes: 64, Discipline: "srs",
		BatchWindow: "200us", BatchMax: 8, Admit: 32,
		Faults: "transient=0.01", FaultSeed: 9, Retry: 2, Deadline: "500us",
		Arrival: "poisson", Rate: 2500, Requests: 48, Seed: 7, SLO: "30ms",
		Hosts: 2, Router: "least", HostAdmit: 16, Drain: "3/2ms", NetNIC: 12.5e9, NetLat: "2us", Shards: 3,
	}
	cases := []struct {
		name    string
		spec    dmx.Spec
		flags   []string
		check   func(t *testing.T, s dmx.Spec, args []string)
		wantErr string
	}{
		{"spec fields become base", spec, nil, func(t *testing.T, s dmx.Spec, _ []string) {
			if !reflect.DeepEqual(s, spec) {
				t.Errorf("built spec differs from the document:\n got %+v\nwant %+v", s, spec)
			}
		}, ""},
		{"explicit flags win", spec, []string{"-placement", "bump", "-rate", "1000", "-requests", "16"},
			func(t *testing.T, s dmx.Spec, _ []string) {
				if s.Placement != "bump" || s.Rate != 1000 || s.Requests != 16 {
					t.Errorf("explicit flags overridden by spec: placement=%q rate=%v requests=%d",
						s.Placement, s.Rate, s.Requests)
				}
				if s.Discipline != "srs" {
					t.Errorf("non-explicit field not taken from spec: discipline=%q", s.Discipline)
				}
			}, ""},
		{"sparse spec keeps defaults", dmx.Spec{Arrival: "open"}, nil, func(t *testing.T, s dmx.Spec, _ []string) {
			if s.Arrival != "open" {
				t.Errorf("arrival = %q", s.Arrival)
			}
			if s.Rate != 1000 || s.Requests != 16 || s.Seed != 1 || s.Placement != "" || s.Hosts != 0 {
				t.Errorf("defaults lost: rate=%v requests=%d seed=%d placement=%q hosts=%d",
					s.Rate, s.Requests, s.Seed, s.Placement, s.Hosts)
			}
		}, ""},
		{"fuse hops carried", dmx.Spec{Arrival: "poisson", FuseHops: []dmx.FusePair{{App: 0, Hop: 0}}}, nil,
			func(t *testing.T, s dmx.Spec, _ []string) {
				if len(s.FuseHops) != 1 || s.FuseHops[0] != (dmx.FusePair{App: 0, Hop: 0}) {
					t.Errorf("fuse = %v", s.FuseHops)
				}
			}, ""},
		{"multi-app runs", dmx.Spec{Apps: []string{"personal-info-redaction", "sound-detection"}, Scale: "test",
			Arrival: "poisson", Rate: 2000, Requests: 4}, nil, func(t *testing.T, _ dmx.Spec, args []string) {
			var buf bytes.Buffer
			if err := run(args, &buf); err != nil {
				t.Fatal(err)
			}
			out := buf.String()
			if !strings.Contains(out, "2 app instance(s) of personal-info-redaction,sound-detection ") {
				t.Errorf("header does not name both apps:\n%s", out)
			}
			for _, app := range []string{"personal-info-redaction", "sound-detection"} {
				if !strings.Contains(out, "  "+app+" ") || !strings.Contains(out, " 4/4 done") {
					t.Errorf("report lacks a completed %s row:\n%s", app, out)
				}
			}
		}, ""},
		{"bad scale rejected", dmx.Spec{Scale: "huge", Arrival: "poisson"}, nil, nil, "scale"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-spec", writeSpec(t, tc.spec)}, tc.flags...)
			if tc.wantErr != "" {
				if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want mention of %q", err, tc.wantErr)
				}
				return
			}
			s, _, err := parse(args)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, s, args)
		})
	}
}

// A fused spec must drive the whole CLI path: the fuse pairs land in
// the config and the run completes.
func TestRunWithFusedSpec(t *testing.T) {
	path := writeSpec(t, dmx.Spec{
		Apps: []string{"pir-ner"}, Scale: "test", Placement: "integrated",
		Arrival: "poisson", Rate: 2000, Requests: 8, Seed: 3,
		FuseHops: []dmx.FusePair{{App: 0, Hop: 0}},
	})
	var buf bytes.Buffer
	if err := run([]string{"-spec", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pir-ner") {
		t.Errorf("report does not mention the app:\n%s", buf.String())
	}
	// The same spec with an illegal placement for fusion must surface
	// the validation error.
	if err := run([]string{"-spec", path, "-placement", "bump"}, &buf); err == nil || !strings.Contains(err.Error(), "shared DRX") {
		t.Errorf("fusion on bump: %v", err)
	}
}
