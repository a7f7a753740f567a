// Package dmx is the public API of the DMX library — a from-scratch
// reproduction of "Data Motion Acceleration: Chaining Cross-Domain Multi
// Accelerators" (HPCA 2024).
//
// DMX chains heterogeneous domain-specific accelerators into end-to-end
// application pipelines and accelerates the *data motion* between them:
// the restructuring computation (layout, dtype, and format conversion)
// and the CPU-mediated copies that chaining otherwise requires. The
// library spans the whole stack the paper describes:
//
//   - a restructuring-kernel IR and library (internal/restructure),
//   - the DRX accelerator: ISA, cycle-level machine, compiler
//     (internal/isa, internal/drx, internal/drxc),
//   - the system model: PCIe fabric, host CPU, drivers, the four DRX
//     placements, and collectives (internal/pcie, internal/cpu,
//     internal/dmxsys),
//   - the five Table I benchmark applications (internal/workload),
//   - and the experiment harness regenerating every table and figure
//     (internal/experiments, cmd/dmxbench).
//
// This package re-exports the pieces a downstream user composes: build a
// Pipeline with NewChain, pick a Config (placement, PCIe generation, DRX
// geometry), and Simulate it to obtain latency, throughput-governing
// stage times, and energy.
package dmx

import (
	"io"

	"dmx/internal/accel"
	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/drx"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/restructure"
	"dmx/internal/sim"
	"dmx/internal/tensor"
	"dmx/internal/traffic"
	"dmx/internal/workload"
)

// Re-exported core types. The aliases are the supported public surface;
// internal packages may gain functionality without breaking users.
type (
	// Placement selects where data restructuring executes (Sec. III).
	Placement = dmxsys.Placement
	// Config parameterizes a simulated server.
	Config = dmxsys.Config
	// Pipeline is one chained application.
	Pipeline = dmxsys.Pipeline
	// Stage is one application kernel in a pipeline.
	Stage = dmxsys.Stage
	// Hop is the data motion between two kernels.
	Hop = dmxsys.Hop
	// RunReport aggregates one simulation.
	RunReport = dmxsys.RunReport
	// AppReport is one application's runtime decomposition.
	AppReport = dmxsys.AppReport
	// AccelSpec describes one accelerator (model + functional kernel).
	AccelSpec = accel.Spec
	// RestructureKernel is a data restructuring program.
	RestructureKernel = restructure.Kernel
	// Tensor is the dense N-d array accelerators exchange.
	Tensor = tensor.Tensor
	// Duration is virtual time (picoseconds).
	Duration = sim.Duration
	// Gen is a PCIe generation.
	Gen = pcie.Gen
	// DRXConfig is the restructuring accelerator's hardware geometry.
	DRXConfig = drx.Config
	// Benchmark is one of the paper's end-to-end applications.
	Benchmark = workload.Benchmark
	// Recorder collects the structured trace of a simulation. Set one on
	// Config.Obs before Simulate, then feed it to WriteTrace or read the
	// Metrics already attached to the RunReport.
	Recorder = obs.Recorder
	// Metrics is the observability aggregate a traced RunReport carries:
	// per-device utilization, per-stage latency histograms, bytes moved.
	Metrics = obs.Metrics
	// TraceEvent is one structured observability event.
	TraceEvent = obs.Event
)

// Placements.
const (
	AllCPU         = dmxsys.AllCPU
	MultiAxl       = dmxsys.MultiAxl
	Integrated     = dmxsys.Integrated
	Standalone     = dmxsys.Standalone
	PCIeIntegrated = dmxsys.PCIeIntegrated
	BumpInTheWire  = dmxsys.BumpInTheWire
)

// PCIe generations.
const (
	Gen3 = pcie.Gen3
	Gen4 = pcie.Gen4
	Gen5 = pcie.Gen5
)

// Virtual-time units for Duration-typed knobs (Duration counts
// picoseconds): cfg.BatchWindow = 200 * dmx.Microsecond.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// DefaultConfig returns the paper's testbed configuration for a
// placement: PCIe Gen3 x16 device links under x8-uplink switches, the
// 128-lane / 64 KB / 1 GHz DRX ASIC, and the calibrated Xeon host.
func DefaultConfig(p Placement) Config { return dmxsys.DefaultConfig(p) }

// DefaultDRX returns the paper's DRX ASIC configuration.
func DefaultDRX() DRXConfig { return drx.DefaultConfig() }

// Unified execution surface. Run is the single entry point; Simulate is
// its one-request wrapper, and a stream or load run is Run with
// StreamSpec(n) or LoadSpec(t).
type (
	// RunSpec selects and parameterizes the execution mode: a
	// single-request latency run (the zero value), a closed-loop
	// stream, or a traffic-generated load. Build one directly or with
	// SingleSpec/StreamSpec/LoadSpec.
	RunSpec = dmxsys.RunSpec
	// RunMode is the execution front-end selector of a RunSpec.
	RunMode = dmxsys.RunMode
	// Report is Run's union result: exactly one of Single, Stream, or
	// Load is non-nil, matching the spec's mode.
	Report = dmxsys.Report
)

// Execution modes.
const (
	ModeSingle = dmxsys.ModeSingle
	ModeStream = dmxsys.ModeStream
	ModeLoad   = dmxsys.ModeLoad
)

// SingleSpec is a one-request-per-app latency run (the zero RunSpec).
func SingleSpec() RunSpec { return dmxsys.SingleSpec() }

// StreamSpec is a closed-loop run of n requests per app.
func StreamSpec(n int) RunSpec { return dmxsys.StreamSpec(n) }

// LoadSpec is a traffic-driven serving run.
func LoadSpec(spec TrafficSpec) RunSpec { return dmxsys.LoadSpec(spec) }

// Run assembles a fresh system from cfg and the pipelines and executes
// it under the spec, returning the mode's report: a one-request latency
// run (the zero spec, what Simulate unwraps), a closed-loop stream
// (StreamSpec(n)), or a traffic-driven load (LoadSpec(t)). The same
// cfg, spec, and pipelines always produce an identical report.
func Run(cfg Config, spec RunSpec, pipelines ...*Pipeline) (Report, error) {
	sys, err := dmxsys.New(cfg, pipelines)
	if err != nil {
		return Report{}, err
	}
	return sys.Execute(spec)
}

// Simulate runs one request through every pipeline concurrently on a
// freshly assembled system and returns the aggregated report. It is
// Run with SingleSpec, unwrapped.
func Simulate(cfg Config, pipelines ...*Pipeline) (RunReport, error) {
	rep, err := Run(cfg, SingleSpec(), pipelines...)
	if err != nil {
		return RunReport{}, err
	}
	return *rep.Single, nil
}

// StreamReport aggregates a streamed (back-to-back request) simulation.
type StreamReport = dmxsys.StreamReport

// Serving-layer surface: load generation with explicit arrival
// processes and latency/throughput reporting. Continuous batching
// (Config.BatchWindow/BatchMax), SLO-aware scheduling (Config.Sched =
// SchedEDF/SchedSRS with TrafficSpec deadlines), and admission control
// (Config.AdmitLimit, LoadReport rejection counts) all configure
// through the same Config + TrafficSpec pair.
type (
	// TrafficSpec parameterizes a load run: arrival process (closed,
	// open, Poisson), per-app request rate and count, PRNG seed, and an
	// optional per-request deadline.
	TrafficSpec = traffic.Spec
	// Arrival selects the request generation process.
	Arrival = traffic.Arrival
	// LoadReport summarizes a load run: per-app offered vs achieved
	// throughput and latency quantiles.
	LoadReport = traffic.LoadReport
	// AppLoad is one application's serving summary.
	AppLoad = traffic.AppLoad
	// SchedPolicy selects how contended stations order waiting jobs
	// (Config.Sched): FIFO, priority, weighted-fair round-robin,
	// earliest-deadline-first, or shortest-remaining-service.
	SchedPolicy = dmxsys.SchedPolicy
	// FaultPlan (Config.Faults) injects seeded deterministic failures:
	// DRX unit outages, transient restructure errors, PCIe link
	// degradation/loss, and accelerator stalls. Parse one from a CLI
	// spec with ParseFaultPlan. nil disables injection bit-for-bit.
	FaultPlan = faults.Plan
	// RetryPolicy (Config.Retry) is the recovery side: per-stage
	// watchdog deadline, bounded re-attempts with deterministic
	// exponential backoff, and graceful degradation to CPU-mediated
	// restructuring when a hop's DRX path is unavailable.
	RetryPolicy = faults.RetryPolicy
	// Outcome classifies how one request retired: clean, degraded
	// (completed via CPU fallback), or abandoned.
	Outcome = traffic.Outcome
)

// Arrival processes.
const (
	ClosedLoop = traffic.ClosedLoop
	OpenLoop   = traffic.OpenLoop
	Poisson    = traffic.Poisson
)

// Scheduling policies. SchedEDF and SchedSRS are the SLO-aware
// disciplines: earliest-deadline-first (deadlines from
// TrafficSpec.Deadline/AppDeadlines) and shortest-remaining-service
// (the per-stage occupancy model as the service estimate).
const (
	SchedFIFO     = dmxsys.SchedFIFO
	SchedPriority = dmxsys.SchedPriority
	SchedWFQ      = dmxsys.SchedWFQ
	SchedEDF      = dmxsys.SchedEDF
	SchedSRS      = dmxsys.SchedSRS
)

// Request outcomes.
const (
	OutcomeClean     = traffic.OutcomeClean
	OutcomeDegraded  = traffic.OutcomeDegraded
	OutcomeAbandoned = traffic.OutcomeAbandoned
	OutcomeRejected  = traffic.OutcomeRejected
)

// ParseFaultPlan parses a comma-separated fault spec — e.g.
// "drx=5ms/200us,transient=0.01,link=20ms/1ms/0.25,stall=10ms/500us" —
// into a FaultPlan (the dmxsim -faults syntax).
func ParseFaultPlan(spec string) (*FaultPlan, error) { return faults.ParseSpec(spec) }

// DefaultRetry returns a serving-grade retry policy: three attempts
// with 20 µs exponential backoff (factor 2, 1 ms cap, 25% jitter) and
// no stage watchdog unless a deadline is set explicitly.
func DefaultRetry() RetryPolicy { return faults.DefaultRetry() }

// Cluster-scale serving surface: N replicas of one Config composed
// into a fleet on a single deterministic engine, joined by a modeled
// network fabric and fronted by a placement- and fault-aware router.
type (
	// FleetConfig composes Hosts replicas of a Base Config (optionally
	// overridden per host) with a network fabric and a cluster router.
	FleetConfig = cluster.FleetConfig
	// NetConfig models the inter-host network: per-host NIC bandwidth,
	// shared core bandwidth, and propagation latency. The zero value
	// disables the fabric.
	NetConfig = cluster.NetConfig
	// RouterConfig parameterizes the fleet's front door: routing policy,
	// per-host admission cap, and fault-aware draining.
	RouterConfig = cluster.RouterConfig
	// RouterPolicy selects how the router assigns arrivals to replicas.
	RouterPolicy = cluster.Policy
)

// Router policies. RouteScore is placement-aware headroom routing
// (capacity bound ÷ outstanding); RouteRR round-robins; RouteLeast
// picks the least-loaded host.
const (
	RouteScore = cluster.PolicyScore
	RouteRR    = cluster.PolicyRR
	RouteLeast = cluster.PolicyLeast
)

// ParseRouterPolicy maps a CLI token ("score", "rr", "least") to a
// router policy (the dmxsim -router syntax).
func ParseRouterPolicy(s string) (RouterPolicy, error) { return cluster.ParsePolicy(s) }

// SimulateCluster builds a fleet from cfg and the pipelines, drives it
// with the spec's arrival process through the cluster router, and rolls
// the per-replica accounting up into one LoadReport that preserves
// per-app tail-latency accounting. A one-host fleet with zero-valued
// network and router configs reproduces Run with LoadSpec byte for
// byte; the same cfg, spec, and pipelines always produce an identical
// report at any sweep worker count.
func SimulateCluster(cfg FleetConfig, spec TrafficSpec, pipelines ...*Pipeline) (LoadReport, error) {
	f, err := cluster.New(cfg, pipelines)
	if err != nil {
		return LoadReport{}, err
	}
	return f.Run(spec)
}

// NewRecorder returns an empty trace recorder for Config.Obs.
func NewRecorder() *Recorder { return obs.New() }

// WriteTrace renders a recorded event stream as Chrome trace-event JSON
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Output is
// deterministic: the same simulation always produces identical bytes.
func WriteTrace(w io.Writer, rec *Recorder) error {
	return obs.WriteTrace(w, rec.Events())
}

// Suite returns the five Table I benchmark applications at paper scale
// (6–16 MB batches).
func Suite() ([]*Benchmark, error) { return workload.Suite(workload.PaperScale) }

// TestSuite returns the same applications at a miniature scale whose
// functional chains execute in milliseconds.
func TestSuite() ([]*Benchmark, error) { return workload.Suite(workload.TestScale) }
