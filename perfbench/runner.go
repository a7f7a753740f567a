package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dmx/internal/traffic"
)

// sample is what one fresh benchmark process measured. The parent
// process aggregates samples from several children into the result.
type sample struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	PassMS     []float64          `json:"pass_ms"`
	Requests   int                `json:"requests"`
	Mallocs    uint64             `json:"mallocs"`
	AllocBytes uint64             `json:"alloc_bytes"`
	RSSPeakMB  float64            `json:"rss_peak_mb"`
	Ops        int                `json:"ops"`
	Failed     int                `json:"failed"`
	Digests    map[string]string  `json:"digests"`
	Layers     map[string]float64 `json:"layers,omitempty"`
}

// runner carries one process's run of a workload: its seed, the
// reference digests to check against, the tracer, and the sample it
// fills in.
type runner struct {
	seed int64
	// ref maps an operation key to its expected digest; nil when the seed
	// has no committed reference, in which case every pass with the same
	// key must agree instead.
	ref map[string]string
	tr  *tracer
	out sample
	// timed holds the (kernel, DRX configuration) pairs already timed in
	// this process (traced runs only).
	timed map[string]bool
	// errs keeps the first few failure reasons for stderr.
	errs []string
}

func newRunner(seed int64, ref map[string]string, trace bool) *runner {
	return &runner{seed: seed, ref: ref, tr: newTracer(trace), out: sample{Digests: map[string]string{}}}
}

// call runs fn inside a span named "<layer>.<call>".
func (r *runner) call(name string, fn func() error) error {
	id := r.tr.begin(name)
	err := fn()
	r.tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// setup times the construction of the workload's inputs.
func (r *runner) setup(fn func() error) error {
	t0 := time.Now()
	err := fn()
	r.out.SetupS = time.Since(t0).Seconds()
	return err
}

// measure times the measured phase and takes the heap counters around
// it. Set-up garbage is collected first so it is not charged to the
// measured phase.
func (r *runner) measure(fn func()) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	r.out.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	r.out.Mallocs = m1.Mallocs - m0.Mallocs
	r.out.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
}

// pass runs one operation. fn returns the digest of the simulated
// statistics and the number of simulated requests it retired. The
// operation fails if fn errors or its digest differs from the reference
// (or, without one, from the first pass with the same key).
func (r *runner) pass(key string, fn func() (string, int, error)) {
	r.tr.run++
	id := r.tr.begin("bench.pass")
	t0 := time.Now()
	digest, reqs, err := fn()
	r.out.PassMS = append(r.out.PassMS, float64(time.Since(t0))/1e6)
	r.tr.end(id)
	r.out.Ops++
	r.out.Requests += reqs
	if err == nil {
		err = r.check(key, digest)
	}
	if err != nil {
		r.fail(fmt.Errorf("pass %d (%s): %w", r.out.Ops, key, err))
	}
}

// check compares a digest against the reference or the first pass.
func (r *runner) check(key, digest string) error {
	want, ok := r.ref[key]
	if r.ref == nil {
		want, ok = r.out.Digests[key]
	}
	if !ok && r.ref != nil {
		return fmt.Errorf("no reference digest")
	}
	if ok && want != digest {
		return fmt.Errorf("digest %s, want %s", digest, want)
	}
	r.out.Digests[key] = digest
	return nil
}

func (r *runner) fail(err error) {
	r.out.Failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// digest hashes a canonical rendering of simulated statistics.
func digest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

// loadDigest renders the report fields a host-side optimisation must
// leave unchanged. Histogram quantiles and engine event counts are
// deliberately left out: the first may be redefined, the second may
// legitimately shrink.
func loadDigest(rep traffic.LoadReport, extra string) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%d\n", rep.Makespan)
	for _, a := range rep.PerApp {
		if a.Requests != a.Completed+a.Abandoned+a.Rejected {
			return "", fmt.Errorf("%s: %d requests != %d completed + %d abandoned + %d rejected",
				a.App, a.Requests, a.Completed, a.Abandoned, a.Rejected)
		}
		fmt.Fprintf(&b, "%s req=%d done=%d degraded=%d abandoned=%d rejected=%d missed=%d retries=%d timeouts=%d batches=%d batched=%d mean=%d\n",
			a.App, a.Requests, a.Completed, a.Degraded, a.Abandoned, a.Rejected, a.Missed,
			a.Retries, a.Timeouts, a.Batches, a.BatchedRequests, a.Mean)
	}
	b.WriteString(extra)
	return digest(b.String()), nil
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
