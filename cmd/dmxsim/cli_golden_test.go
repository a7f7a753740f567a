package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// cliEnv makes the test binary behave as dmxsim: TestMain runs main()
// on the process arguments instead of the test suite. The CLI golden
// re-executes the binary this way so every row goes through real flag
// parsing, -spec loading, dispatch, printing, and exit codes.
const cliEnv = "DMXSIM_CLI_GOLDEN"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Spec documents the rows load with -spec. Test scale keeps each run in
// milliseconds.
const (
	testDoc  = `{"scale":"test"}`
	fusedDoc = `{"apps":["pir-ner"],"scale":"test","placement":"integrated",
		"arrival":"poisson","rate":2000,"requests":8,"seed":3,"fuse_hops":[{"app":0,"hop":0}]}`
	baseDoc = `{"apps":["sound-detection"],"scale":"test","copies":2,"placement":"integrated",
		"discipline":"srs","arrival":"poisson","rate":2500,"requests":24,"seed":5,"slo":"30ms"}`
)

// cliRow is one dmxsim command line. An accepted row pins the first 16
// hex digits of sha256(stdout ‖ trace.json bytes, when written); a row
// with an empty hash must exit non-zero.
type cliRow struct {
	name string
	args []string
	hash string
}

var cliRows = []cliRow{
	{"oneshot-verbose-trace", []string{"-spec", "t.json", "-app", "sound-detection", "-apps", "2", "-v", "-trace"}, "aa35fa5831113dcf"},
	{"oneshot-suite-multiaxl-gen4", []string{"-spec", "t.json", "-placement", "multiaxl", "-gen", "4", "-lanes", "64", "-v"}, "e9b889da20202b01"},
	{"poisson-stats-trace-out", []string{"-spec", "t.json", "-app", "all", "-arrival", "poisson", "-rate", "2000",
		"-requests", "16", "-seed", "7", "-stats", "-trace-out", "trace.json"}, "51ece6b01bb3ff0b"},
	{"batch-edf-slo-admit", []string{"-spec", "t.json", "-app", "sound-detection", "-apps", "2", "-arrival", "poisson",
		"-rate", "40000", "-requests", "48", "-seed", "7", "-discipline", "edf", "-batch-window", "200us",
		"-batch-max", "8", "-admit", "32", "-slo", "5ms"}, "6fae37e18ca3b6c2"},
	{"faults-retry-deadline", []string{"-spec", "t.json", "-app", "sound-detection", "-arrival", "poisson", "-rate", "2000",
		"-requests", "48", "-seed", "7", "-faults", "drx=2ms/500us,transient=0.02,link=5ms/200us/0.25,stall=5ms/200us",
		"-fault-seed", "42", "-retry", "4", "-deadline", "500us", "-trace-out", "trace.json"}, "389f06149a3a883c"},
	{"fleet-4-hosts-sharded", []string{"-spec", "t.json", "-app", "sound-detection", "-hosts", "4", "-router", "score",
		"-host-admit", "16", "-drain", "3/2ms", "-net-nic", "12.5e9", "-net-lat", "2us", "-shards", "2",
		"-arrival", "poisson", "-rate", "120000", "-requests", "96", "-seed", "7", "-faults", "drx=2ms/500us",
		"-stats", "-trace-out", "trace.json"}, "60150124a328e8d3"},
	{"fleet-rr-core-drain", []string{"-spec", "t.json", "-hosts", "2", "-router", "rr", "-net-core", "50e9", "-drain", "2",
		"-arrival", "open", "-rate", "5000", "-requests", "8"}, "127e7d37e9e95336"},
	{"priority-closed", []string{"-spec", "t.json", "-app", "brain-stimulation", "-apps", "3", "-discipline", "priority",
		"-arrival", "closed", "-requests", "8"}, "4baf878ea3b764e6"},
	{"retry-only-oneshot", []string{"-spec", "t.json", "-app", "personal-info-redaction", "-retry", "2", "-deadline", "1ms", "-v"}, "b0b29348e3d5aae3"},
	{"fused-doc", []string{"-spec", "f.json"}, "f3235710c06cdd2e"},
	{"fused-doc-rate-override", []string{"-spec", "f.json", "-rate", "5000"}, "aa203a602abf9e6b"},
	{"doc-as-base-placement-override", []string{"-spec", "d.json", "-placement", "standalone", "-requests", "12"}, "3fa4677caf5d5dd2"},
	{"paper-oneshot-bump", []string{"-app", "sound-detection", "-apps", "4", "-placement", "bump"}, "5a138e9bd1d0684f"},
	{"paper-hash-join-lanes", []string{"-app", "database-hash-join", "-placement", "bump", "-lanes", "64", "-v"}, "7904953752a784e5"},

	{"reject-zero-hosts", []string{"-spec", "t.json", "-app", "sound-detection", "-hosts", "0"}, ""},
	{"reject-zero-gen", []string{"-spec", "t.json", "-app", "sound-detection", "-gen", "0"}, ""},
	{"reject-zero-lanes", []string{"-spec", "t.json", "-app", "sound-detection", "-lanes", "0"}, ""},
	{"reject-zero-apps", []string{"-spec", "t.json", "-app", "sound-detection", "-apps", "0"}, ""},
	{"reject-net-lat-one-host", []string{"-spec", "t.json", "-app", "sound-detection", "-net-lat", "2us"}, ""},
	{"reject-drain-one-host", []string{"-spec", "t.json", "-app", "sound-detection", "-drain", "3/2ms"}, ""},
	{"reject-hosts-without-arrival", []string{"-spec", "t.json", "-app", "sound-detection", "-hosts", "2"}, ""},
	{"reject-bad-placement", []string{"-spec", "t.json", "-app", "sound-detection", "-placement", "bogus"}, ""},
	{"reject-unknown-app", []string{"-spec", "t.json", "-app", "bogus"}, ""},
	{"reject-missing-doc", []string{"-spec", "missing.json"}, ""},
}

func TestCLIGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cliRows {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			for name, body := range map[string]string{"t.json": testDoc, "f.json": fusedDoc, "d.json": baseDoc} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(exe, r.args...)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), cliEnv+"=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if r.hash == "" {
				if err == nil {
					t.Fatalf("dmxsim %v exited 0; want a non-zero exit\nstdout:\n%s", r.args, stdout.String())
				}
				return
			}
			if err != nil {
				t.Fatalf("dmxsim %v: %v\nstderr:\n%s", r.args, err, stderr.String())
			}
			h := sha256.New()
			h.Write(stdout.Bytes())
			if trace, err := os.ReadFile(filepath.Join(dir, "trace.json")); err == nil {
				h.Write(trace)
			}
			if got := hex.EncodeToString(h.Sum(nil))[:16]; got != r.hash {
				t.Errorf("dmxsim %v: output hash %s, want %s\nstdout:\n%s", r.args, got, r.hash, stdout.String())
			}
		})
	}
}
