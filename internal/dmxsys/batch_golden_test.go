package dmxsys_test

// The batched serving walk is pinned like the closed-loop stream: each
// (placement, scenario) cell's rendered text trace plus every LoadReport
// field is hashed into testdata/batch_golden.txt. Scenarios cover a
// fault-free EDF batching window, the same window under seeded DRX
// outages, transient restructure faults, the default retry ladder, and
// a stage watchdog, and the window under link outages and accelerator
// stalls — so peel, degrade, timeout, fabric-retry, and abandon handling
// of coalesced batches are all on the pinned bytes. Run with -update only
// to regenerate after an intentional timing change.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// batchScenario is one batched serving configuration of the golden.
type batchScenario struct {
	name string
	mut  func(*dmxsys.Config)
}

var batchScenarios = []batchScenario{
	{"edf", func(c *dmxsys.Config) {}},
	{"faults", func(c *dmxsys.Config) {
		c.Faults = &faults.Plan{
			Seed:          21,
			DRXMTBF:       sim.Millisecond,
			DRXRepair:     400 * sim.Microsecond,
			TransientProb: 0.01,
		}
		c.Retry = faults.DefaultRetry()
		c.Retry.StageDeadline = 27 * sim.Microsecond
	}},
	{"links", func(c *dmxsys.Config) {
		c.Faults = &faults.Plan{
			Seed:        8,
			LinkMTBF:    sim.Millisecond,
			LinkRepair:  150 * sim.Microsecond,
			StallMTBF:   2 * sim.Millisecond,
			StallRepair: 100 * sim.Microsecond,
		}
		c.Retry = faults.DefaultRetry()
	}},
}

// batchDump renders one batched RunLoad as stable text: the exact
// trace-line sequence followed by every LoadReport field.
func batchDump(t *testing.T, pipes []*dmxsys.Pipeline, p dmxsys.Placement, sc batchScenario) string {
	t.Helper()
	cfg := dmxsys.DefaultConfig(p)
	cfg.BatchWindow = 200 * sim.Microsecond
	cfg.BatchMax = 8
	cfg.Sched = dmxsys.SchedEDF
	sc.mut(&cfg)
	var sb strings.Builder
	cfg.Trace = func(at sim.Time, app, event string) {
		fmt.Fprintf(&sb, "[%d] %s %s\n", int64(at), app, event)
	}
	s, err := dmxsys.New(cfg, pipes)
	if err != nil {
		t.Fatalf("%v/%s: %v", p, sc.name, err)
	}
	rep, err := s.RunLoad(traffic.Spec{
		Arrival:      traffic.Poisson,
		Rate:         30000,
		Requests:     160,
		Seed:         11,
		Deadline:     3 * sim.Millisecond,
		AppDeadlines: []sim.Duration{sim.Millisecond},
	})
	if err != nil {
		t.Fatalf("%v/%s: %v", p, sc.name, err)
	}
	fmt.Fprintf(&sb, "%+v\n", rep)
	return sb.String()
}

func TestBatchedLoadGoldenAcrossPlacements(t *testing.T) {
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	var pipes []*dmxsys.Pipeline
	for _, b := range benches {
		if len(b.Pipeline.Hops) > 0 && len(pipes) < 2 {
			pipes = append(pipes, b.Pipeline)
		}
	}
	placements := []dmxsys.Placement{
		dmxsys.Integrated, dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	}
	got := make(map[string]string)
	var keys []string
	for _, p := range placements {
		for _, sc := range batchScenarios {
			key := goldenKey(sc.name, p)
			got[key] = hashDump(batchDump(t, pipes, p, sc))
			keys = append(keys, key)
		}
	}

	golden := filepath.Join("testdata", "batch_golden.txt")
	if *update {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if fields := strings.Fields(line); len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d cells, run produced %d", len(want), len(got))
	}
	for _, k := range keys {
		if want[k] == "" {
			t.Errorf("%s: missing from golden file", k)
			continue
		}
		if got[k] != want[k] {
			t.Errorf("%s: batched output changed: hash %s, golden %s", k, got[k], want[k])
		}
	}
}
