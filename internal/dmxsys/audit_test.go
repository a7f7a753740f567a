package dmxsys_test

// End-of-run release audit: whatever path a run takes — solo or
// batched, clean or under every fault mechanism, fused or not — once
// RunLoad drains, nothing may still be held. Queue bytes, station
// slots (a leaked fused hold keeps one busy), CPU channel work, and
// unit shells must all be back, and every issued request must be
// accounted as completed, abandoned, or rejected.

import (
	"fmt"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

func TestEndOfRunReleaseAudit(t *testing.T) {
	chained, err := workload.PIRWithNER(workload.TestScale)
	if err != nil {
		t.Fatal(err)
	}
	pipes := []*dmxsys.Pipeline{chained.Pipeline, faultBench(t).Pipeline}
	for _, p := range []dmxsys.Placement{
		dmxsys.AllCPU, dmxsys.MultiAxl, dmxsys.Integrated,
		dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire,
	} {
		fusable := p == dmxsys.Integrated || p == dmxsys.Standalone || p == dmxsys.PCIeIntegrated
		for _, batched := range []bool{false, true} {
			for _, faulty := range []bool{false, true} {
				for _, fused := range []bool{false, true} {
					if fused && !fusable {
						continue
					}
					name := fmt.Sprintf("%v/batched=%v/faults=%v/fused=%v", p, batched, faulty, fused)
					cfg := dmxsys.DefaultConfig(p)
					cfg.Sched = dmxsys.SchedEDF
					cfg.AdmitLimit = 24
					if batched {
						cfg.BatchWindow = 200 * sim.Microsecond
						cfg.BatchMax = 8
					}
					if faulty {
						cfg.Faults = stressPlan(17)
						cfg.Faults.TransientProb = 0.10
						cfg.Faults.LinkDegradeFactor = 0 // outages fail transfers
						cfg.Retry = faults.DefaultRetry()
						cfg.Retry.StageDeadline = 100 * sim.Microsecond
					}
					if fused {
						cfg.FuseHops = []dmxsys.FusePair{{App: 0, Hop: 0}}
					}
					s, err := dmxsys.New(cfg, pipes)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					rep, err := s.RunLoad(traffic.Spec{
						Arrival: traffic.Poisson, Rate: 20000, Requests: 48, Seed: 23,
						Deadline: 4 * sim.Millisecond,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for _, leak := range s.Leaks() {
						t.Errorf("%s: %s", name, leak)
					}
					for _, a := range rep.PerApp {
						if a.Requests != a.Completed+a.Abandoned+a.Rejected {
							t.Errorf("%s %s: %d requests != %d completed + %d abandoned + %d rejected",
								name, a.App, a.Requests, a.Completed, a.Abandoned, a.Rejected)
						}
					}
				}
			}
		}
	}
}
