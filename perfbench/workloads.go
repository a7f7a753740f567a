package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/drxc"
	"dmx/internal/faults"
	"dmx/internal/pcie"
	"dmx/internal/restructure"
	"dmx/internal/sim"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// params sizes the workloads. full is what the benchmark runs; the
// tests run tiny.
type params struct {
	// planScale, lanes and planApps shape plan-sweep's cells.
	planScale workload.Scale
	lanes     []int
	planApps  int
	// passes and requests size one serving process: passes back to back,
	// each issuing requests per app.
	passes   int
	requests int
	// hosts and shards shape fleet-batched's fleet.
	hosts  int
	shards int
}

var full = params{
	planScale: workload.PaperScale,
	lanes:     []int{32, 64, 128, 256},
	planApps:  10,
	passes:    150,
	requests:  200,
	hosts:     4,
	shards:    runtime.NumCPU(),
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runner, params) error{
	"plan-sweep":    planSweep,
	"serve-open":    serveOpen,
	"fleet-batched": fleetBatched,
}

// Serving load and fault settings.
const (
	// serveLoad is serve-open's offered rate per app as a share of the
	// tightest app's analytic capacity: busy, but not saturated.
	serveLoad = 0.9
	// fleetLoad is fleet-batched's offered rate per app as a share of
	// the fleet's unbatched capacity for the tightest app; batching
	// raises the real capacity well above it.
	fleetLoad  = 1.5
	netLatency = 2 * sim.Microsecond
)

// tableI is the five Table I constructors in Suite order, called one
// after another when tracing so each gets its own build time.
var tableI = []func(workload.Scale) (*workload.Benchmark, error){
	workload.VideoSurveillance, workload.SoundDetection, workload.BrainStimulation,
	workload.PersonalInfoRedaction, workload.DatabaseHashJoin,
}

// buildSuite builds the Table I suite: through workload.Suite (its
// concurrent pool, as users run it) untraced, and constructor by
// constructor when tracing.
func buildSuite(r *runner, sc workload.Scale) ([]*workload.Benchmark, error) {
	if !r.tr.on {
		var suite []*workload.Benchmark
		err := r.call("workload.Suite", func() (err error) {
			suite, err = workload.Suite(sc)
			return err
		})
		return suite, err
	}
	suite := make([]*workload.Benchmark, len(tableI))
	for i, build := range tableI {
		id := r.tr.begin("workload.build")
		t0 := time.Now()
		b, err := build(sc)
		r.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("workload.build: %w", err)
		}
		r.tr.count("workload.build_s."+b.Name, time.Since(t0).Seconds())
		suite[i] = b
	}
	return suite, nil
}

func pipelines(benches []*workload.Benchmark, n int) []*dmxsys.Pipeline {
	pipes := make([]*dmxsys.Pipeline, n)
	for i := range pipes {
		pipes[i] = benches[i%len(benches)].Pipeline
	}
	return pipes
}

// buildPlan compiles and times the pipelines' DRX kernels, then builds
// the plan: the path every plan build takes, with each layer in its own
// span.
func buildPlan(r *runner, cfg dmxsys.Config, pipes []*dmxsys.Pipeline) (*dmxsys.Plan, error) {
	var kernels []*restructure.Kernel
	for _, p := range pipes {
		for _, h := range p.Hops {
			kernels = append(kernels, h.Kernel)
		}
	}
	if r.tr.on {
		r.countTimings(cfg, kernels)
	}
	if err := r.call("drxc.WarmCompiled", func() error { return drxc.WarmCompiled(cfg.DRX, kernels) }); err != nil {
		return nil, err
	}
	if err := r.call("drx.WarmDRXTimes", func() error { return dmxsys.WarmDRXTimes(cfg.DRX, pipes) }); err != nil {
		return nil, err
	}
	var plan *dmxsys.Plan
	err := r.call("plan.NewPlan", func() (err error) {
		plan, err = dmxsys.NewPlan(cfg, pipes)
		return err
	})
	return plan, err
}

// countTimings counts the (kernel, DRX configuration) pairs this
// process has not timed yet: the DRX timings WarmDRXTimes will run.
func (r *runner) countTimings(cfg dmxsys.Config, kernels []*restructure.Kernel) {
	if r.timed == nil {
		r.timed = map[string]bool{}
	}
	for _, k := range kernels {
		key := fmt.Sprintf("%s|%+v", k.Signature(), cfg.DRX)
		if !r.timed[key] {
			r.timed[key] = true
			r.tr.count("drx.timings", 1)
		}
	}
}

func instantiate(r *runner, plan *dmxsys.Plan) (*dmxsys.System, error) {
	var sys *dmxsys.System
	err := r.call("plan.Instantiate", func() (err error) {
		sys, err = plan.Instantiate(sim.NewEngine(), dmxsys.HostOpts{})
		return err
	})
	return sys, err
}

// tightest is the smallest analytic capacity across the plan's apps.
func tightest(plan *dmxsys.Plan) float64 {
	c := plan.Capacity(0).PerSecond
	for i := 1; i < plan.Apps(); i++ {
		c = min(c, plan.Capacity(i).PerSecond)
	}
	return c
}

// sweepCell is one plan-sweep cell: a DRX lane count and placement over
// planApps co-running Table I apps, or the Fig. 16 PIR+NER pipeline.
type sweepCell struct {
	lanes     int
	placement dmxsys.Placement
	pirNER    bool
}

func (c sweepCell) key() string {
	if c.pirNER {
		return fmt.Sprintf("lanes=%d/pir-ner", c.lanes)
	}
	return fmt.Sprintf("lanes=%d/%v", c.lanes, c.placement)
}

// planSweep runs the Fig. 18 lane axis across the four DRX placements,
// plus PIR+NER on bump-in-the-wire. DRX timing runs cold: each lane count
// is timed once per process, in its first cell. The seed changes nothing
// here: the inputs are the fixed paper-scale corpora, and a seeded cell
// order would only add seed-dependent garbage-collector interference.
func planSweep(r *runner, p params) error {
	var suite []*workload.Benchmark
	var pirNER *workload.Benchmark
	err := r.setup(func() (err error) {
		if suite, err = buildSuite(r, p.planScale); err != nil {
			return err
		}
		return r.call("workload.PIRWithNER", func() (err error) {
			pirNER, err = workload.PIRWithNER(p.planScale)
			return err
		})
	})
	if err != nil {
		return err
	}
	var cells []sweepCell
	for _, lanes := range p.lanes {
		for _, pl := range []dmxsys.Placement{dmxsys.Integrated, dmxsys.Standalone, dmxsys.PCIeIntegrated, dmxsys.BumpInTheWire} {
			cells = append(cells, sweepCell{lanes: lanes, placement: pl})
		}
		cells = append(cells, sweepCell{lanes: lanes, placement: dmxsys.BumpInTheWire, pirNER: true})
	}

	table := pipelines(suite, p.planApps)
	fig16 := pipelines([]*workload.Benchmark{pirNER}, p.planApps)
	var last *dmxsys.Plan
	r.measure(func() {
		for _, c := range cells {
			pipes := table
			if c.pirNER {
				pipes = fig16
			}
			r.pass(c.key(), func() (string, int, error) {
				cfg := dmxsys.DefaultConfig(c.placement)
				cfg.DRX = cfg.DRX.WithLanes(c.lanes)
				plan, err := buildPlan(r, cfg, pipes)
				if err != nil {
					return "", 0, err
				}
				last = plan
				return runCell(r, plan)
			})
		}
	})
	if r.tr.on && last != nil {
		return probeRoutes(r, last)
	}
	return nil
}

// runCell instantiates the plan and launches one request per app.
func runCell(r *runner, plan *dmxsys.Plan) (string, int, error) {
	sys, err := instantiate(r, plan)
	if err != nil {
		return "", 0, err
	}
	var rep dmxsys.RunReport
	if err := r.call("serve.Run", func() (err error) {
		rep, err = sys.Run()
		return err
	}); err != nil {
		return "", 0, err
	}
	if len(rep.Apps) != plan.Apps() {
		return "", 0, fmt.Errorf("%d app reports for %d apps", len(rep.Apps), plan.Apps())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d fabric=%d\n", rep.Makespan, sys.Fabric.TotalBytes())
	for _, a := range rep.Apps {
		if a.Abandoned != 0 {
			return "", 0, fmt.Errorf("%s: %d abandoned in a fault-free run", a.App, a.Abandoned)
		}
		fmt.Fprintf(&b, "%s total=%d kernel=%d restructure=%d movement=%d retries=%d degraded=%d\n",
			a.App, a.Total, a.KernelTime, a.RestructureTime, a.MovementTime, a.Retries, a.Degraded)
	}
	// Apps cycle through a few pipelines, so each distinct kernel's
	// service time is looked up once.
	seen := map[*restructure.Kernel]bool{}
	for i := 0; i < plan.Apps(); i++ {
		for k, h := range plan.Pipeline(i).Hops {
			if seen[h.Kernel] {
				continue
			}
			seen[h.Kernel] = true
			d, err := sys.DRXServiceTime(h.Kernel)
			if err != nil {
				return "", 0, err
			}
			fmt.Fprintf(&b, "drx %d/%d=%d\n", i, k, d)
		}
	}
	r.countServe(sys, len(rep.Apps))
	return digest(b.String()), len(rep.Apps), nil
}

// countServe records the engine, fabric and request counts of one
// serving call.
func (r *runner) countServe(sys *dmxsys.System, requests int) {
	r.tr.count("serve.requests", float64(requests))
	r.tr.count("sim.events", float64(sys.Eng.Fired()))
	r.tr.count("pcie.bytes", float64(sys.Fabric.TotalBytes()))
}

// serveOpen serves the test-scale suite on bump-in-the-wire under
// Poisson arrivals: each pass instantiates the set-up plan and runs the
// load to completion.
func serveOpen(r *runner, p params) error {
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	var plan *dmxsys.Plan
	var spec traffic.Spec
	err := r.setup(func() error {
		suite, err := buildSuite(r, workload.TestScale)
		if err != nil {
			return err
		}
		plan, err = buildPlan(r, cfg, pipelines(suite, len(suite)))
		if err != nil {
			return err
		}
		spec = traffic.Spec{Arrival: traffic.Poisson, Rate: serveLoad * tightest(plan), Requests: p.requests, Seed: uint64(r.seed)}
		return nil
	})
	if err != nil {
		return err
	}
	r.measure(func() {
		for i := 0; i < p.passes; i++ {
			r.pass("serve-open", func() (string, int, error) { return servePass(r, plan, spec, true) })
		}
	})
	if !r.tr.on {
		return nil
	}
	return probeRoutes(r, plan)
}

// servePass is one Instantiate + RunLoad; outcomes says whether the
// report's retry, batch and rejection counts are the workload's own.
func servePass(r *runner, plan *dmxsys.Plan, spec traffic.Spec, outcomes bool) (string, int, error) {
	sys, err := instantiate(r, plan)
	if err != nil {
		return "", 0, err
	}
	var rep traffic.LoadReport
	if err := r.call("serve.RunLoad", func() (err error) {
		rep, err = sys.RunLoad(spec)
		return err
	}); err != nil {
		return "", 0, err
	}
	n := spec.Requests * plan.Apps()
	r.countServe(sys, n)
	if outcomes {
		r.countOutcomes(rep)
	}
	d, err := loadDigest(rep, fmt.Sprintf("fabric=%d\n", sys.Fabric.TotalBytes()))
	return d, n, err
}

func (r *runner) countOutcomes(rep traffic.LoadReport) {
	for _, a := range rep.PerApp {
		r.tr.count("serve.batches", float64(a.Batches))
		r.tr.count("serve.batched", float64(a.BatchedRequests))
		r.tr.count("serve.retries", float64(a.Retries))
		r.tr.count("serve.abandoned", float64(a.Abandoned))
		r.tr.count("serve.rejected", float64(a.Rejected))
	}
	r.tr.count("serve.reports", 1)
}

// batchedHost is fleet-batched's host: bump-in-the-wire with batching,
// EDF, seeded DRX outages and transient faults, and the default retry
// policy.
func batchedHost(seed int64) dmxsys.Config {
	cfg := dmxsys.DefaultConfig(dmxsys.BumpInTheWire)
	cfg.BatchWindow = 200 * sim.Microsecond
	cfg.BatchMax = 8
	cfg.Sched = dmxsys.SchedEDF
	cfg.Faults = &faults.Plan{
		Seed:          uint64(seed),
		DRXMTBF:       2 * sim.Millisecond,
		DRXRepair:     200 * sim.Microsecond,
		TransientProb: 0.01,
	}
	cfg.Retry = faults.DefaultRetry()
	return cfg
}

// fleetBatched serves the test-scale suite on a sharded multi-host
// fleet with batching, EDF, faults, retry and score routing with drain.
// Each pass builds the fleet and runs the load.
func fleetBatched(r *runner, p params) error {
	var plan *dmxsys.Plan
	var pipes []*dmxsys.Pipeline
	var fcfg cluster.FleetConfig
	var spec traffic.Spec
	err := r.setup(func() error {
		suite, err := buildSuite(r, workload.TestScale)
		if err != nil {
			return err
		}
		host := batchedHost(r.seed)
		pipes = pipelines(suite, len(suite))
		plan, err = buildPlan(r, host, pipes)
		if err != nil {
			return err
		}
		fcfg = cluster.FleetConfig{
			Hosts: p.hosts,
			Base:  host,
			Net:   cluster.NetConfig{NICBytesPerSec: 12.5e9, CoreBytesPerSec: 50e9, Latency: netLatency},
			Router: cluster.RouterConfig{
				Policy:         cluster.PolicyScore,
				DrainIncidents: 6,
				DrainWindow:    200 * sim.Microsecond,
			},
			Shards: p.shards,
		}
		rate := fleetLoad * float64(p.hosts) * tightest(plan)
		spec = traffic.Spec{Arrival: traffic.Poisson, Rate: rate, Requests: p.requests, Seed: uint64(r.seed), Deadline: 2 * sim.Millisecond}
		return nil
	})
	if err != nil {
		return err
	}
	r.measure(func() {
		for i := 0; i < p.passes; i++ {
			r.pass("fleet-batched", func() (string, int, error) { return fleetPass(r, fcfg, pipes, spec, "") })
		}
	})
	if !r.tr.on {
		return nil
	}
	// Probes, traced only and outside the measured phase: the same fleet
	// sequentially (its digest must match the sharded one), and one host
	// serving its share of the load on its own engine, which isolates the
	// batch walk from the router and network.
	seq := fcfg
	seq.Shards = 1
	hostSpec := spec
	hostSpec.Rate /= float64(p.hosts)
	for i := 0; i < max(1, p.passes/4); i++ {
		r.pass("fleet-batched", func() (string, int, error) { return fleetPass(r, seq, pipes, spec, "Sequential") })
		r.pass("fleet-batched/host", func() (string, int, error) { return servePass(r, plan, hostSpec, false) })
	}
	return probeRoutes(r, plan)
}

// fleetPass builds a fleet and runs the load; suffix tells the sharded
// spans from the sequential probe's.
func fleetPass(r *runner, fcfg cluster.FleetConfig, pipes []*dmxsys.Pipeline, spec traffic.Spec, suffix string) (string, int, error) {
	var f *cluster.Fleet
	if err := r.call("cluster.New"+suffix, func() (err error) {
		f, err = cluster.New(fcfg, pipes)
		return err
	}); err != nil {
		return "", 0, err
	}
	var rep traffic.LoadReport
	if err := r.call("cluster.Run"+suffix, func() (err error) {
		rep, err = f.Run(spec)
		return err
	}); err != nil {
		return "", 0, err
	}
	n := spec.Requests * len(rep.PerApp)
	if suffix == "" {
		r.tr.count("cluster.requests", float64(n))
		r.tr.count("shard.lanes", float64(f.Shards()))
		r.tr.count("cluster.runs", 1)
		r.countOutcomes(rep)
	} else {
		r.tr.count("cluster.requests"+suffix, float64(n))
	}
	d, err := loadDigest(rep, fmt.Sprintf("routed=%v\n", f.Routed()))
	return d, n, err
}

// probeRoutes times static route lookups over every ordered pair of
// fabric endpoints of a fresh replica of the plan.
func probeRoutes(r *runner, plan *dmxsys.Plan) error {
	sys, err := instantiate(r, plan)
	if err != nil {
		return err
	}
	ends := append(sys.Fabric.Devices(), pcie.Root)
	id := r.tr.begin("pcie.PathLinks")
	t0 := time.Now()
	for time.Since(t0) < 20*time.Millisecond {
		for _, from := range ends {
			for _, to := range ends {
				if from == to {
					continue
				}
				if _, err := sys.Fabric.PathLinks(from, to); err != nil {
					r.tr.end(id)
					return fmt.Errorf("pcie.PathLinks %s→%s: %w", from, to, err)
				}
				r.tr.count("pcie.routes", 1)
			}
		}
	}
	r.tr.end(id)
	return nil
}
