package dmx_test

import (
	"testing"

	"dmx"
)

func TestSimulateSuiteThroughPublicAPI(t *testing.T) {
	suite, err := dmx.TestSuite()
	if err != nil {
		t.Fatal(err)
	}
	if len(suite) != 5 {
		t.Fatalf("suite has %d benchmarks, want 5", len(suite))
	}
	pipes := make([]*dmx.Pipeline, len(suite))
	for i, b := range suite {
		pipes[i] = b.Pipeline
	}
	base, err := dmx.Simulate(dmx.DefaultConfig(dmx.MultiAxl), pipes...)
	if err != nil {
		t.Fatal(err)
	}
	accel, err := dmx.Simulate(dmx.DefaultConfig(dmx.BumpInTheWire), pipes...)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Apps) != 5 || len(accel.Apps) != 5 {
		t.Fatalf("reports cover %d/%d apps", len(base.Apps), len(accel.Apps))
	}
	for i := range base.Apps {
		if base.Apps[i].Total <= 0 || accel.Apps[i].Total <= 0 {
			t.Errorf("app %d: non-positive totals", i)
		}
	}
}

func TestPublicConfigKnobs(t *testing.T) {
	cfg := dmx.DefaultConfig(dmx.BumpInTheWire)
	cfg.Gen = dmx.Gen5
	cfg.DRX = dmx.DefaultDRX().WithLanes(64)
	suite, err := dmx.TestSuite()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dmx.Simulate(cfg, suite[0].Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placement != dmx.BumpInTheWire {
		t.Errorf("placement %v", rep.Placement)
	}
	if rep.EnergyJ <= 0 {
		t.Error("no energy reported")
	}
}

func TestFunctionalChainsThroughPublicAPI(t *testing.T) {
	suite, err := dmx.TestSuite()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range suite {
		if _, err := b.Exec(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestSimulateStreamThroughPublicAPI(t *testing.T) {
	suite, err := dmx.TestSuite()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := dmx.Run(dmx.DefaultConfig(dmx.BumpInTheWire), dmx.StreamSpec(4), suite[1].Pipeline)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Stream.PerApp) != 1 || rep.Stream.PerApp[0].Throughput <= 0 {
		t.Fatalf("bad stream report: %+v", rep.Stream)
	}
}

func TestPlacementsExported(t *testing.T) {
	order := []dmx.Placement{dmx.AllCPU, dmx.MultiAxl, dmx.Integrated,
		dmx.Standalone, dmx.PCIeIntegrated, dmx.BumpInTheWire}
	seen := map[string]bool{}
	for _, p := range order {
		s := p.String()
		if s == "" || seen[s] {
			t.Errorf("placement %d has empty/duplicate name %q", int(p), s)
		}
		seen[s] = true
	}
}

func TestSimulateClusterThroughPublicAPI(t *testing.T) {
	suite, err := dmx.TestSuite()
	if err != nil {
		t.Fatal(err)
	}
	pipe := suite[0].Pipeline
	cfg := dmx.DefaultConfig(dmx.BumpInTheWire)
	spec := dmx.TrafficSpec{Arrival: dmx.Poisson, Rate: 3000, Requests: 24, Seed: 2}
	solo, err := dmx.Run(cfg, dmx.LoadSpec(spec), pipe)
	if err != nil {
		t.Fatal(err)
	}
	one, err := dmx.SimulateCluster(dmx.FleetConfig{Hosts: 1, Base: cfg}, spec, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if one.String() != solo.Load.String() {
		t.Errorf("one-host SimulateCluster diverged from the single-host load run:\n%s\nvs:\n%s", one, solo.Load)
	}
	fleet, err := dmx.SimulateCluster(dmx.FleetConfig{
		Hosts:  4,
		Base:   cfg,
		Net:    dmx.NetConfig{Latency: 2 * dmx.Microsecond},
		Router: dmx.RouterConfig{Policy: dmx.RouteScore},
	}, spec, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if al := fleet.PerApp[0]; al.Completed+al.Abandoned+al.Rejected != spec.Requests {
		t.Errorf("fleet outcomes do not cover all %d requests: %+v", spec.Requests, al)
	}
}
