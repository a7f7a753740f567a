package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// span is one timed call into a simulator layer. Spans nest: Parent is
// the index of the enclosing span (-1 for a root) and Run numbers the
// operation the span belongs to (0 for set-up, then 1, 2, ... per pass).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	// AllocBytes is the heap allocated inside the span, recorded only
	// for the layers whose memory the benchmark reports (see tracksAllocs).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`

	mallocs uint64
}

// tracer keeps spans in memory around each layer call the benchmark
// makes and writes them out when the run ends. A disabled tracer makes
// begin/end no-ops, so the untraced run pays one branch per call and
// allocates nothing for tracing.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	stack  []int
	run    int
	counts map[string]float64
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), counts: map[string]float64{}}
}

// tracksAllocs reports whether a span's heap allocation is sampled: only
// the layers whose memory is reported, since runtime.ReadMemStats stops
// the world.
func tracksAllocs(name string) bool {
	layer := layerOf(name)
	return layer == "drx" || layer == "serve"
}

// begin opens a span named "<layer>.<call>" and returns its handle.
func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	s := span{Name: name, Parent: parent, Run: t.run}
	if tracksAllocs(name) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocBytes, s.mallocs = ms.TotalAlloc, ms.Mallocs
	}
	s.Start = int64(time.Since(t.t0))
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if tracksAllocs(s.Name) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.AllocBytes, s.mallocs = ms.TotalAlloc-s.AllocBytes, ms.Mallocs-s.mallocs
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// count adds v to a named counter recorded at a layer boundary.
func (t *tracer) count(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layerStat sums, for one span name or layer, how many spans closed,
// their total self time (duration minus the time covered by child
// spans), and the heap they allocated.
type layerStat struct {
	calls      int
	self       time.Duration
	allocBytes uint64
	mallocs    uint64
}

// stats aggregates spans by full name, and by layer under the bare
// layer name.
func (t *tracer) stats() map[string]*layerStat {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	add := func(key string, s span, self int64) {
		st := out[key]
		if st == nil {
			st = &layerStat{}
			out[key] = st
		}
		st.calls++
		st.self += time.Duration(self)
		st.allocBytes += s.AllocBytes
		st.mallocs += s.mallocs
	}
	for i, s := range t.spans {
		self := s.End - s.Start - child[i]
		add(s.Name, s, self)
		add(layerOf(s.Name), s, self)
	}
	return out
}

// write stores the spans as JSON under dir, one file per process.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-pid%d.json", workload, seed, os.Getpid()))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers derives the per-layer metrics from the spans and counters of a
// traced run. A layer the workload never calls reports 0.
func (r *runner) layers(compileHits, compileMisses float64) map[string]float64 {
	st := r.tr.stats()
	c := r.tr.counts
	get := func(name string) layerStat {
		if s := st[name]; s != nil {
			return *s
		}
		return layerStat{}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	mean := func(name string, unit time.Duration) float64 {
		s := get(name)
		return ratio(float64(s.self)/float64(unit), float64(s.calls))
	}
	m := map[string]float64{}
	for name, v := range c {
		if strings.HasPrefix(name, "workload.build_s.") {
			m[name] = v
		}
	}
	drx, serve := get("drx"), get("serve")
	m["drx.time_s"] = drx.self.Seconds()
	m["drx.timings"] = c["drx.timings"]
	m["drx.alloc_mb"] = float64(drx.allocBytes) / 1e6
	m["drxc.compile_s"] = get("drxc").self.Seconds()
	m["drxc.compiles"] = compileMisses
	// WarmCompiled fills the program cache without counting hits, and
	// each DRX timing then hits it once, so at the parent this reads 0.5
	// by construction. It moves if timings or compile keys stop pairing
	// one to one.
	m["drxc.hit_ratio"] = ratio(compileHits, compileHits+compileMisses)
	m["plan.build_ms"] = mean("plan.NewPlan", time.Millisecond)
	m["plan.instantiate_us"] = mean("plan.Instantiate", time.Microsecond)
	reqs := c["serve.requests"]
	m["serve.us_per_req"] = ratio(float64(serve.self)/1e3, reqs)
	m["serve.allocs_per_req"] = ratio(float64(serve.mallocs), reqs)
	m["sim.events_per_req"] = ratio(c["sim.events"], reqs)
	// The engine runs inside the serve spans and has no span of its own,
	// so this is derived from serve time: serve.us_per_req × 1000 ÷
	// sim.events_per_req.
	m["sim.ns_per_event"] = ratio(float64(serve.self), c["sim.events"])
	m["pcie.route_ns"] = ratio(float64(get("pcie").self), c["pcie.routes"])
	m["pcie.bytes_per_req"] = ratio(c["pcie.bytes"], reqs)
	m["serve.mean_batch"] = ratio(c["serve.batched"], c["serve.batches"])
	for _, k := range []string{"retries", "abandoned", "rejected"} {
		m["serve."+k] = ratio(c["serve."+k], c["serve.reports"])
	}
	m["cluster.new_ms"] = mean("cluster.New", time.Millisecond)
	runK, run1 := get("cluster.Run"), get("cluster.RunSequential")
	m["cluster.us_per_req"] = ratio(float64(runK.self)/1e3, c["cluster.requests"])
	m["shard.lanes"] = ratio(c["shard.lanes"], c["cluster.runs"])
	m["shard.speedup"] = ratio(ratio(float64(run1.self), c["cluster.requestsSequential"]),
		ratio(float64(runK.self), c["cluster.requests"]))
	m["trace.spans"] = float64(len(r.tr.spans))
	return m
}

// layerUnits gives each per-layer metric its unit; the per-app
// workload.build_s.<app> metrics are in seconds.
var layerUnits = map[string]string{
	"drx.time_s": "s", "drx.timings": "count", "drx.alloc_mb": "MB",
	"drxc.compile_s": "s", "drxc.compiles": "count", "drxc.hit_ratio": "ratio",
	"plan.build_ms": "ms", "plan.instantiate_us": "us",
	"serve.us_per_req": "us", "serve.allocs_per_req": "count",
	"sim.events_per_req": "count", "sim.ns_per_event": "ns",
	"pcie.route_ns": "ns", "pcie.bytes_per_req": "B",
	"serve.mean_batch": "count", "serve.retries": "count", "serve.abandoned": "count", "serve.rejected": "count",
	"cluster.new_ms": "ms", "cluster.us_per_req": "us", "shard.lanes": "count", "shard.speedup": "ratio",
	"trace.spans": "count", "trace.overhead_s": "s",
}

func layerUnit(name string) string {
	if u, ok := layerUnits[name]; ok {
		return u
	}
	return "s"
}
