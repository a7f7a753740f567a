// Command perfbench measures the host time the DMX simulator takes on
// three workloads — a cold paper-scale plan sweep, open-loop serving on
// one host, and a batched, faulty, sharded fleet — and checks that every
// simulated result matches its reference.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serve-open --seed 1 --seconds 40 --trace 0
//
// Each run spawns fresh child processes of itself, one after another,
// until --seconds have passed, so every child pays the cold cost of the
// simulator's process-wide caches as a command-line user does. The last
// line of standard output is one JSON result. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"

	"dmx/internal/drxc"
)

// defaultSeed is the seed whose digests are committed in reference.json.
const defaultSeed = 1

//go:embed reference.json
var referenceJSON []byte

// reference is the committed digests: workload → operation key → digest,
// for defaultSeed.
type reference map[string]map[string]string

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	child    bool
	spans    string
	appendTo string
	updateTo string
}

func main() {
	var o options
	var traceFlag int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload: plan-sweep, serve-open or fleet-batched")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "seed for the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 40, "how long to keep starting fresh measuring processes")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.BoolVar(&o.child, "child", false, "run one measuring process and print its sample (used by the parent)")
	flag.StringVar(&o.spans, "spans", ".bench_build/spans", "directory traced runs write their spans to")
	flag.StringVar(&o.appendTo, "append", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	flag.StringVar(&o.updateTo, "update-reference", "", "rewrite this reference file with the workload's digests at the default seed")
	flag.BoolVar(&compare, "compare", false, "compare two -append files: perfbench -compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition read by -compare")
	flag.Parse()
	o.trace = traceFlag == 1

	var err error
	switch {
	case compare:
		if flag.NArg() != 2 {
			err = errors.New("-compare needs two result files")
			break
		}
		err = runCompare(os.Stdout, *bench, flag.Arg(0), flag.Arg(1))
	case o.child:
		err = runChild(o)
	case o.updateTo != "":
		err = updateReference(o)
	default:
		err = runParent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childReference is the digest table a child checks against: the
// committed one at the default seed, none otherwise.
func childReference(o options) (map[string]string, error) {
	if o.seed != defaultSeed {
		return nil, nil
	}
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if ref[o.workload] == nil {
		return nil, fmt.Errorf("reference.json has no digests for %s", o.workload)
	}
	return ref[o.workload], nil
}

// runChild is one fresh measuring process: it prints its sample as JSON.
func runChild(o options) error {
	run, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	ref, err := childReference(o)
	if err != nil {
		return err
	}
	r, err := measureOnce(run, full, o.seed, ref, o.trace)
	if err != nil {
		return err
	}
	if o.trace {
		if err := r.tr.write(o.spans, o.workload, o.seed); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	return json.NewEncoder(os.Stdout).Encode(r.out)
}

// measureOnce runs a workload in this process and fills in its sample.
func measureOnce(run func(*runner, params) error, p params, seed int64, ref map[string]string, trace bool) (*runner, error) {
	r := newRunner(seed, ref, trace)
	hits0, misses0 := drxc.CacheStats()
	if err := run(r, p); err != nil {
		return nil, err
	}
	var err error
	if r.out.RSSPeakMB, err = rssPeakMB(); err != nil {
		return nil, err
	}
	if trace {
		hits, misses := drxc.CacheStats()
		r.out.Layers = r.layers(float64(hits-hits0), float64(misses-misses0))
	}
	return r, nil
}

// runParent starts fresh children until the time is up and prints the
// aggregated result. A traced run alternates traced and untraced
// children; the untraced ones give the tracing overhead.
func runParent(o options) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (want plan-sweep, serve-open or fleet-batched)", o.workload)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	host := fmt.Sprintf("host nproc=%d gomaxprocs=%d go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Println("#", host)
	start := time.Now()
	var traced, plain []sample
	for i := 0; ; i++ {
		enough := len(plain) >= minChildren
		if o.trace {
			enough = len(traced) >= 1 && len(plain) >= 1
		}
		if enough && time.Since(start).Seconds() >= o.seconds {
			break
		}
		trace := o.trace && i%2 == 0
		s, err := spawn(exe, o, trace)
		if err != nil {
			return err
		}
		if trace {
			traced = append(traced, s)
		} else {
			plain = append(plain, s)
		}
	}
	res := aggregate(o, plain, traced)
	var passes []float64
	for _, s := range plain {
		passes = append(passes, s.PassMS...)
	}
	// The median pass time is printed here, not reported as a metric: on
	// a host whose speed alternates between two levels, the median of a
	// two-mode distribution swings between the modes from run to run.
	fmt.Printf("# %s workload=%s seed=%d processes=%d untraced+%d traced passes/process=%d pass_ms_p50=%.4f\n",
		host, o.workload, o.seed, len(plain), len(traced), len(plain[0].PassMS), quantile(passes, 0.5))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	if o.appendTo != "" {
		if err := appendRecord(o, res); err != nil {
			return err
		}
	}
	fmt.Println(string(line))
	return nil
}

// minChildren is the fewest untraced processes an end-to-end run
// aggregates, so each reported figure is a median of at least three.
const minChildren = 3

// spawn runs one child process and decodes its sample.
func spawn(exe string, o options, trace bool) (sample, error) {
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-trace", t, "-spans", o.spans)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("child process: %w", err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("child sample: %w", err)
	}
	return s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// aggregate folds the children's samples into the result: medians
// across processes, pass percentiles over the pooled passes, and digest
// agreement across processes.
func aggregate(o options, plain, traced []sample) result {
	all := append(append([]sample(nil), plain...), traced...)
	res := result{Metrics: map[string]metric{}}
	first := map[string]string{}
	for _, s := range all {
		res.Attempted += s.Ops
		res.Failed += s.Failed
		for key, d := range s.Digests {
			if want, ok := first[key]; ok && want != d {
				res.Failed++
			}
			first[key] = d
		}
	}
	res.Correct = res.Failed == 0
	med := func(f func(sample) float64, from []sample) float64 {
		xs := make([]float64, len(from))
		for i, s := range from {
			xs[i] = f(s)
		}
		return quantile(xs, 0.5)
	}
	if o.trace {
		for name := range traced[0].Layers {
			res.Metrics[name] = metric{med(func(s sample) float64 { return s.Layers[name] }, traced), layerUnit(name)}
		}
		wall := func(s sample) float64 { return s.WallS }
		res.Metrics["trace.overhead_s"] = metric{med(wall, traced) - med(wall, plain), "s"}
		return res
	}
	var passes []float64
	for _, s := range plain {
		passes = append(passes, s.PassMS...)
	}
	res.Metrics["setup_s"] = metric{med(func(s sample) float64 { return s.SetupS }, plain), "s"}
	res.Metrics["wall_s"] = metric{med(func(s sample) float64 { return s.WallS }, plain), "s"}
	res.Metrics["pass_ms_p90"] = metric{quantile(passes, 0.9), "ms"}
	res.Metrics["sim_req_per_s"] = metric{med(func(s sample) float64 { return float64(s.Requests) / s.WallS }, plain), "1/s"}
	res.Metrics["allocs_per_req"] = metric{med(func(s sample) float64 { return float64(s.Mallocs) / float64(s.Requests) }, plain), "count"}
	res.Metrics["alloc_mb"] = metric{med(func(s sample) float64 { return float64(s.AllocBytes) / 1e6 }, plain), "MB"}
	res.Metrics["rss_peak_mb"] = metric{med(func(s sample) float64 { return s.RSSPeakMB }, plain), "MB"}
	return res
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// record is one line of an -append file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

func appendRecord(o options, res result) error {
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(o.appendTo, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// updateReference runs the workload traced at the default seed, with no
// reference, and stores its digests: for use only when a change is meant
// to alter simulated results.
func updateReference(o options) error {
	run, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	r, err := measureOnce(run, full, defaultSeed, nil, true)
	if err != nil {
		return err
	}
	if r.out.Failed != 0 {
		return fmt.Errorf("%d operations failed: %v", r.out.Failed, r.errs)
	}
	ref := reference{}
	if data, err := os.ReadFile(o.updateTo); err == nil {
		if err := json.Unmarshal(data, &ref); err != nil {
			return fmt.Errorf("%s: %w", o.updateTo, err)
		}
	}
	ref[o.workload] = r.out.Digests
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.updateTo, append(data, '\n'), 0o644)
}
