// Command dmxsim runs a single system configuration and prints the
// latency/throughput/energy report: one benchmark (or the full suite),
// a concurrency level, a DRX placement, and fabric/DRX knobs.
//
// Examples:
//
//	dmxsim -app sound-detection -apps 4 -placement bump
//	dmxsim -app all -apps 15 -placement multiaxl -gen 4
//	dmxsim -app database-hash-join -placement bump -lanes 64 -v
//	dmxsim -app sound-detection -trace-out trace.json -stats
//	dmxsim -app sound-detection -apps 4 -arrival poisson -rate 2000 -requests 64 -seed 7
//
// -trace-out writes the structured trace as Chrome trace-event JSON;
// open it at ui.perfetto.dev. -stats prints per-device utilization and
// per-stage latency histograms aggregated from the same event stream.
//
// -arrival switches to load-generation mode: each application receives
// -requests requests under the chosen arrival process (closed-loop
// burst, open-loop fixed rate, or seeded Poisson at -rate req/s), and
// the report shows per-app offered vs achieved throughput and latency
// quantiles. -discipline selects how contended stations order waiting
// jobs (fifo, priority, wfq, edf, srs).
//
// The serving layer's SLO machinery hangs off four more flags:
// -batch-window enables continuous batching (arrivals of one app within
// the window coalesce into one pipeline walk; the report gains a
// batches line), -batch-max caps the batch size, -slo sets the
// per-request latency budget (the miss accounting in the report, and
// the deadlines EDF schedules by), and -admit bounds each app's
// outstanding requests with immediate rejection beyond the limit:
//
//	dmxsim -app sound-detection -apps 4 -arrival poisson -rate 4000 -requests 64 \
//	    -batch-window 200us -discipline edf -slo 30ms -admit 32
//
// -faults turns on seeded deterministic fault injection (DRX outages,
// transient restructure errors, PCIe link degradation/loss, accelerator
// stalls):
//
//	dmxsim -app sound-detection -arrival poisson -rate 2000 -requests 64 \
//	    -faults drx=5ms/200us,transient=0.01 -fault-seed 42
//
// Injection implies the default recovery policy (bounded retries with
// exponential backoff, graceful degradation of DRX-down hops to
// CPU-mediated restructuring); -retry caps the attempts and -deadline
// arms a per-stage watchdog. The same -faults spec and -fault-seed
// always reproduce the same report.
//
// -hosts N (with a load-mode -arrival) replicates the whole
// configuration N times into a fleet on one shared engine and routes
// the arrival process through the cluster router. -router picks the
// policy (score = placement-aware headroom, rr, least), -host-admit
// caps each host's outstanding requests, -drain N/window drains hosts
// whose fault incidents spike, and -net-core/-net-nic/-net-lat model
// the inter-host network:
//
//	dmxsim -app sound-detection -hosts 4 -arrival poisson -rate 8000 -requests 256 \
//	    -router score -host-admit 64 -net-nic 12.5e9 -net-lat 2us
//
// The report is the same LoadReport, rolled up across replicas, plus a
// "router:" line showing where requests landed. A fleet of one host is
// byte-identical to the single-host load run.
//
// -shards N runs the fleet conservatively in parallel: hosts spread
// across up to N event lanes that execute concurrently inside lookahead
// windows derived from -net-lat. Output is byte-identical at any shard
// count — the flag only buys wall-clock on multi-core machines, and a
// fleet without a network latency falls back to sequential execution.
// The cluster-only flags (-shards, -net-*, -host-admit, -drain) are
// rejected with -hosts 1 rather than silently ignored.
//
// Every run flag is a field assignment on one dmx.Spec, the same JSON
// document the autotuner emits as TuneResult.Winner, and Spec.Resolve
// is the only place the run is validated and wired. -spec file.json
// loads such a document first; the flags given on the command line then
// overwrite just their own fields, so an explicit flag always wins:
//
//	dmxsim -spec tuned.json              # replay the document as-is
//	dmxsim -spec tuned.json -requests 64 # same experiment, longer run
//
// A document may select several apps (the header names them all) and
// carries the fields no flag sets (scale, fuse_hops). Its drain field
// is the -drain syntax. Unknown fields and trailing data are rejected.
// Only the output options (-v, -trace, -stats, -trace-out) live outside
// the Spec.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"dmx"
	"dmx/internal/cluster"
	"dmx/internal/dmxsys"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/sim"
)

func main() {
	// One buffered writer carries everything — the event trace, the
	// report, and the energy line — so output order is exactly emission
	// order regardless of how the pieces are produced.
	out := bufio.NewWriter(os.Stdout)
	err := run(os.Args[1:], out)
	if ferr := out.Flush(); err == nil {
		err = ferr
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(os.Stderr, "dmxsim: %v\n", err)
		os.Exit(1)
	}
}

// output holds the options that shape what is printed, not what is
// simulated, and the -spec path.
type output struct {
	verbose, trace, stats bool
	traceOut, spec        string
}

// bind returns a flag set whose run flags each write one field of s.
// Every flag's default is the field's current value, so binding a Spec
// that already holds a document keeps the document's values.
func bind(s *dmx.Spec, o *output) *flag.FlagSet {
	fs := flag.NewFlagSet("dmxsim", flag.ContinueOnError)
	fs.Var(apps{&s.Apps}, "app", "benchmark name or 'all' (video-surveillance, sound-detection, brain-stimulation, personal-info-redaction, database-hash-join, pir-ner, genai-rag; default all)")
	fs.Var(atLeast1{&s.Copies}, "apps", "concurrent application instances (default 1)")
	fs.StringVar(&s.Placement, "placement", s.Placement, "allcpu | multiaxl | integrated | standalone | pcie | bump (default bump)")
	fs.Var(atLeast1{&s.Gen}, "gen", "PCIe generation: 3, 4, 5 (default 3)")
	fs.Var(atLeast1{&s.Lanes}, "lanes", "DRX RE lanes, a power of two (default 128)")
	fs.BoolVar(&o.verbose, "v", false, "print per-app breakdowns")
	fs.BoolVar(&o.trace, "trace", false, "print the Fig. 10 event trace")
	fs.BoolVar(&o.stats, "stats", false, "print device utilization and per-stage latency histograms")
	fs.StringVar(&o.traceOut, "trace-out", "", "write a Perfetto-loadable trace (Chrome trace-event JSON) to this file")
	fs.StringVar(&o.spec, "spec", "", "load a JSON experiment Spec (dmx.Spec); flags given on the command line override its fields")
	fs.StringVar(&s.Arrival, "arrival", s.Arrival, "load-generation arrival process: closed | open | poisson (empty = one request per app)")
	fs.Float64Var(&s.Rate, "rate", s.Rate, "offered request rate per app in req/s (open and poisson arrivals)")
	fs.IntVar(&s.Requests, "requests", s.Requests, "requests per app in load-generation mode")
	fs.Uint64Var(&s.Seed, "seed", s.Seed, "PRNG seed for poisson arrivals")
	fs.StringVar(&s.Discipline, "discipline", s.Discipline, "service discipline at contended stations: fifo | priority | wfq | edf | srs (default fifo)")
	fs.StringVar(&s.BatchWindow, "batch-window", s.BatchWindow, "continuous-batching window, e.g. '200us' (empty = batching off)")
	fs.IntVar(&s.BatchMax, "batch-max", s.BatchMax, "max requests per batch; reaching it flushes the window early (0 = uncapped)")
	fs.IntVar(&s.Admit, "admit", s.Admit, "per-app admission limit on outstanding requests in load mode (0 = unlimited)")
	fs.StringVar(&s.SLO, "slo", s.SLO, "per-request latency budget, e.g. '30ms' (deadline-miss accounting; the deadline EDF schedules by)")
	fs.StringVar(&s.Faults, "faults", s.Faults, "fault-injection spec, e.g. 'drx=5ms/200us,transient=0.01,link=20ms/1ms/0.25,stall=10ms/500us'")
	fs.Uint64Var(&s.FaultSeed, "fault-seed", s.FaultSeed, "override the fault plan's PRNG seed (0 keeps the spec's seed)")
	fs.IntVar(&s.Retry, "retry", s.Retry, "max attempts per stage under faults (0 = default policy of 3 when -faults is set)")
	fs.StringVar(&s.Deadline, "deadline", s.Deadline, "per-stage watchdog deadline, e.g. '500us' (empty = no watchdog)")
	fs.Var(atLeast1{&s.Hosts}, "hosts", "fleet size: replicate the whole configuration onto N hosts behind the cluster router (needs -arrival; default 1)")
	fs.StringVar(&s.Router, "router", s.Router, "cluster routing policy: score (placement-aware headroom) | rr | least (default score)")
	fs.IntVar(&s.HostAdmit, "host-admit", s.HostAdmit, "cluster-level cap on outstanding requests per host (0 = unlimited)")
	fs.StringVar(&s.Drain, "drain", s.Drain, "fault-aware draining as 'N/window', e.g. '3/2ms': drain a host with ≥N incidents inside the trailing window ('3' alone = unbounded window)")
	fs.Float64Var(&s.NetCore, "net-core", s.NetCore, "shared core network bandwidth in bytes/s per direction (0 = unmodeled)")
	fs.Float64Var(&s.NetNIC, "net-nic", s.NetNIC, "per-host NIC bandwidth in bytes/s per direction (0 = unmodeled)")
	fs.StringVar(&s.NetLat, "net-lat", s.NetLat, "one-way network propagation latency, e.g. '2us' (empty = none)")
	fs.IntVar(&s.Shards, "shards", s.Shards, "event lanes for conservative-parallel fleet execution (needs -net-lat; 0 or 1 = sequential; output is byte-identical at any value)")
	return fs
}

// apps is -app: one benchmark name, or "all" for the full suite. String
// renders the selection for the report header; no apps is the suite.
type apps struct{ names *[]string }

func (a apps) String() string {
	if a.names == nil || len(*a.names) == 0 {
		return "all"
	}
	return strings.Join(*a.names, ",")
}

func (a apps) Set(v string) error {
	*a.names = []string{v}
	return nil
}

// atLeast1 is a count flag that must be at least 1. The Spec reads 0 as
// "default" for -apps, -gen, -lanes, and -hosts, so an explicit 0 on
// the command line is an error rather than a silent default.
type atLeast1 struct{ n *int }

func (a atLeast1) String() string {
	if a.n == nil {
		return "0"
	}
	return strconv.Itoa(*a.n)
}

func (a atLeast1) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, strconv.IntSize)
	if err != nil {
		return err
	}
	if n < 1 {
		return errors.New("must be at least 1")
	}
	*a.n = int(n)
	return nil
}

// withCLIDefaults fills the three fields whose dmxsim default differs
// from the Spec zero value; a document that leaves them zero keeps them.
func withCLIDefaults(s dmx.Spec) dmx.Spec {
	if s.Rate == 0 {
		s.Rate = 1000
	}
	if s.Requests == 0 {
		s.Requests = 16
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// parse builds the run's Spec: the CLI defaults, then the -spec
// document, then every flag given on the command line. The first pass
// only finds -spec; the second binds the flags over the loaded document.
func parse(args []string) (dmx.Spec, output, error) {
	var o output
	probe := withCLIDefaults(dmx.Spec{})
	if err := bind(&probe, &o).Parse(args); err != nil {
		return dmx.Spec{}, o, err
	}
	var s dmx.Spec
	if o.spec != "" {
		doc, err := os.ReadFile(o.spec)
		if err == nil {
			s, err = dmx.UnmarshalSpec(doc)
		}
		if err != nil {
			return dmx.Spec{}, o, fmt.Errorf("-spec: %w", err)
		}
	}
	s = withCLIDefaults(s)
	return s, o, bind(&s, &o).Parse(args)
}

// run resolves the command line's Spec and runs it: a fleet when it
// has more than one host, a load run when it sets an arrival process,
// and the one-request-per-app run otherwise.
func run(args []string, out io.Writer) error {
	s, o, err := parse(args)
	if err != nil {
		return err
	}
	fc, ts, pipes, err := s.Resolve()
	if err != nil {
		return err
	}
	cfg := &fc.Base
	if o.trace {
		if fc.Hosts > 1 {
			return fmt.Errorf("-trace is single-host only; use -trace-out or -stats on a fleet")
		}
		cfg.Trace = func(at sim.Time, app, event string) {
			fmt.Fprintf(out, "  [%12v] %-24s %s\n", at, app, event)
		}
	}
	if o.traceOut != "" || o.stats {
		cfg.Obs = obs.New()
	}
	fleet := ""
	if fc.Hosts > 1 {
		fleet = fmt.Sprintf(" on %d hosts", fc.Hosts)
	}
	fmt.Fprintf(out, "simulating %d app instance(s) of %s under %v%s (PCIe %v, %d RE lanes)...\n",
		len(pipes), apps{&s.Apps}, cfg.Placement, fleet, cfg.Gen, cfg.DRX.Lanes)

	var makespan sim.Duration
	switch {
	case fc.Hosts > 1:
		f, err := cluster.New(fc, pipes)
		if err != nil {
			return err
		}
		rep, err := f.Run(ts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		fmt.Fprintf(out, "router: policy=%v", fc.Router.Policy)
		for h, perApp := range f.Routed() {
			n := 0
			for _, c := range perApp {
				n += c
			}
			fmt.Fprintf(out, " h%d=%d", h, n)
		}
		fmt.Fprintln(out)
		printFaults(out, cfg, f.FaultCounts)
		makespan = rep.Makespan
	case s.Arrival != "":
		sys, err := dmxsys.New(*cfg, pipes)
		if err != nil {
			return err
		}
		rep, err := sys.RunLoad(ts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		printFaults(out, cfg, sys.FaultCounts)
		makespan = rep.Makespan
	default:
		sys, err := dmxsys.New(*cfg, pipes)
		if err != nil {
			return err
		}
		rep, err := sys.Run()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, rep)
		printFaults(out, cfg, sys.FaultCounts)
		if o.verbose {
			for _, a := range rep.Apps {
				fmt.Fprintf(out, "  %-26s total %-12v kernel %-12v restructure %-12v movement %-12v (%.1f req/s)\n",
					a.App, a.Total, a.KernelTime, a.RestructureTime, a.MovementTime, a.Throughput(2))
			}
		}
		fmt.Fprintf(out, "energy: %.2f J ", rep.EnergyJ)
		keys := make([]string, 0, len(rep.EnergyBreakdown))
		for k := range rep.EnergyBreakdown {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "%s=%.2f ", k, rep.EnergyBreakdown[k])
		}
		fmt.Fprintln(out)
		makespan = rep.Makespan
	}
	if o.stats {
		fmt.Fprintln(out, obs.Aggregate(cfg.Obs.Events(), obs.Duration(makespan)))
	}
	if o.traceOut == "" {
		return nil
	}
	f, err := os.Create(o.traceOut)
	if err != nil {
		return err
	}
	werr := obs.WriteTrace(f, cfg.Obs.Events())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("writing trace: %w", werr)
	}
	fmt.Fprintf(out, "trace: %d events written to %s (open at ui.perfetto.dev)\n", cfg.Obs.Len(), o.traceOut)
	return nil
}

// printFaults summarizes the incidents a faulted run actually observed.
func printFaults(out io.Writer, cfg *dmxsys.Config, counts func() faults.Counts) {
	if cfg.Faults == nil {
		return
	}
	c := counts()
	fmt.Fprintf(out, "faults observed: %d DRX outages, %d link incidents, %d stalls, %d transients\n",
		c.DRXOutages, c.LinkIncidents, c.Stalls, c.Transients)
}
