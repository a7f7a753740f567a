package dmxsys_test

// The Plan/Instantiate split's own gates: replicas of one plan share no
// mutable state, and the process-wide DRX timing cache must never serve
// one host's times to a host with different DRX hardware. The capacity
// bound is pinned against the open-loop saturation plateau
// (TestRunLoadSaturationMatchesCapacity).

import (
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/sim"
	"dmx/internal/workload"
)

func suitePipelines(t *testing.T) []*dmxsys.Pipeline {
	t.Helper()
	benches, err := workload.Suite(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	var pipes []*dmxsys.Pipeline
	for _, b := range benches {
		pipes = append(pipes, b.Pipeline)
	}
	return pipes
}

func TestPlanReplicasIndependent(t *testing.T) {
	// Two replicas of one plan on one engine must not share mutable
	// state: loading one replica cannot change the other's report.
	pipes := suitePipelines(t)[:1]
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	plan, err := dmxsys.NewPlan(cfg, pipes)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	a, err := plan.Instantiate(eng, dmxsys.HostOpts{Prefix: "h0/"})
	if err != nil {
		t.Fatal(err)
	}
	bSys, err := plan.Instantiate(eng, dmxsys.HostOpts{Prefix: "h1/"})
	if err != nil {
		t.Fatal(err)
	}
	var aDone, bDone int
	for i := 0; i < 6; i++ {
		a.Admit(0, 0, func(dmxsys.Retired) { aDone++ })
	}
	bSys.Admit(0, 0, func(dmxsys.Retired) { bDone++ })
	eng.Run()
	if a.Err() != nil || bSys.Err() != nil {
		t.Fatal(a.Err(), bSys.Err())
	}
	if aDone != 6 || bDone != 1 {
		t.Fatalf("replica retirements crossed: %d and %d", aDone, bDone)
	}
}

func TestDRXClockCacheRegression(t *testing.T) {
	// Two hosts differing only in DRX clock must compute different
	// restructuring times. Before the cache key carried the full DRX
	// config, the process-wide cache could serve host A's time to host
	// B whenever only an unkeyed field (clock, instruction cache, DRAM
	// size) differed.
	pipes := suitePipelines(t)
	var kernel = func() *dmxsys.Pipeline {
		for _, p := range pipes {
			if len(p.Hops) > 0 {
				return p
			}
		}
		t.Fatal("no chained pipeline in suite")
		return nil
	}()
	k := kernel.Hops[0].Kernel

	fast := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	slow := fast
	slow.DRX.ClockHz = fast.DRX.ClockHz / 4

	fastSys, err := dmxsys.New(fast, []*dmxsys.Pipeline{kernel})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := fastSys.DRXServiceTime(k)
	if err != nil {
		t.Fatal(err)
	}
	// Built second, so a mis-keyed cache would serve it the fast host's
	// entry for the same kernel signature.
	slowSys, err := dmxsys.New(slow, []*dmxsys.Pipeline{kernel})
	if err != nil {
		t.Fatal(err)
	}
	st, err := slowSys.DRXServiceTime(k)
	if err != nil {
		t.Fatal(err)
	}
	if st <= ft {
		t.Fatalf("quarter-clock DRX served %q in %v, fast host in %v: cached time crossed hosts",
			k.Signature(), st, ft)
	}
}
