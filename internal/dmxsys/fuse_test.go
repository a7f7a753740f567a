package dmxsys

import (
	"strings"
	"testing"

	"dmx/internal/accel"
	"dmx/internal/faults"
	"dmx/internal/restructure"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/traffic"
)

// fusiblePipeline is a three-stage chain whose two hops share a chained
// intermediate (RecordFrame's "records" feeds NERPrep) — the stock
// fusible pair, at a small geometry so DRX timing runs stay fast.
func fusiblePipeline(name string) *Pipeline {
	const nrec, reclen, seqlen, dim = 512, 64, 32, 8
	batch := int64(nrec * reclen)
	nseq := nrec * reclen / seqlen
	tokBytes := int64(nseq * seqlen * 4)
	aes, err := accel.NewAESGCM("fuse-test")
	if err != nil {
		panic(err)
	}
	re := accel.NewRegexRedact(nrec, reclen)
	ner := accel.NewBERTNER(nseq, seqlen, dim, 11)
	return &Pipeline{
		Name: name,
		Stages: []Stage{
			{Accel: aes, InBytes: batch + 16},
			{Accel: re, InBytes: batch},
			{Accel: ner, InBytes: tokBytes},
		},
		Hops: []Hop{
			{Kernel: restructure.RecordFrame(nrec, reclen), InBytes: batch, OutBytes: batch},
			{Kernel: restructure.NERPrep(nrec, reclen, seqlen), InBytes: batch, OutBytes: tokBytes},
		},
		InputBytes:  batch + 16,
		OutputBytes: tokBytes,
	}
}

func TestFuseHopsValidation(t *testing.T) {
	base := func() Config {
		c := DefaultConfig(Integrated)
		c.FuseHops = []FusePair{{App: 0, Hop: 0}}
		return c
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"legal", func(c *Config) {}, ""},
		{"with batching", func(c *Config) { c.BatchWindow = 100 * sim.Microsecond }, ""},
		{"bump placement", func(c *Config) { c.Placement = BumpInTheWire }, "shared DRX unit"},
		{"allcpu placement", func(c *Config) { c.Placement = AllCPU }, "shared DRX unit"},
		{"negative hop", func(c *Config) { c.FuseHops = []FusePair{{App: 0, Hop: -1}} }, "negative"},
		{"duplicate", func(c *Config) { c.FuseHops = []FusePair{{App: 0, Hop: 0}, {App: 0, Hop: 0}} }, "duplicate"},
		{"overlap", func(c *Config) { c.FuseHops = []FusePair{{App: 0, Hop: 0}, {App: 0, Hop: 1}} }, "overlapping"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestFuseHopsPlanRejectsOutOfRange(t *testing.T) {
	pipes := []*Pipeline{fusiblePipeline("app")}
	cfg := DefaultConfig(Integrated)
	cfg.FuseHops = []FusePair{{App: 1, Hop: 0}}
	if _, err := NewPlan(cfg, pipes); err == nil || !strings.Contains(err.Error(), "pipelines") {
		t.Errorf("out-of-range app: %v", err)
	}
	cfg.FuseHops = []FusePair{{App: 0, Hop: 1}}
	if _, err := NewPlan(cfg, pipes); err == nil || !strings.Contains(err.Error(), "adjacent pair") {
		t.Errorf("out-of-range hop: %v", err)
	}
	// Non-chaining kernels: hop 0 of testPipeline has no partner, and a
	// mismatched pair must surface restructure.Fuse's error.
	mixed := fusiblePipeline("app")
	mixed.Hops[1].Kernel = restructure.NERPrep(256, 64, 32) // wrong geometry
	cfg.FuseHops = []FusePair{{App: 0, Hop: 0}}
	if _, err := NewPlan(cfg, []*Pipeline{mixed}); err == nil || !strings.Contains(err.Error(), "fuse") {
		t.Errorf("infusible pair: %v", err)
	}
}

func TestFusionCandidates(t *testing.T) {
	for _, p := range []Placement{Integrated, Standalone, PCIeIntegrated} {
		plan, err := NewPlan(DefaultConfig(p), []*Pipeline{fusiblePipeline("app")})
		if err != nil {
			t.Fatal(err)
		}
		cands := plan.FusionCandidates()
		if len(cands) != 1 {
			t.Fatalf("%v: %d candidates, want 1", p, len(cands))
		}
		c := cands[0]
		if c.App != 0 || c.Hop != 0 || c.Fused <= 0 || c.Unfused <= 0 {
			t.Errorf("%v: candidate %+v", p, c)
		}
	}
	// No shared unit → no candidates.
	plan, err := NewPlan(DefaultConfig(BumpInTheWire), []*Pipeline{fusiblePipeline("app")})
	if err != nil {
		t.Fatal(err)
	}
	if cands := plan.FusionCandidates(); cands != nil {
		t.Errorf("bump candidates %v, want none", cands)
	}
	// A single-hop pipeline has no adjacent pair.
	plan, err = NewPlan(DefaultConfig(Integrated), []*Pipeline{testPipeline("app")})
	if err != nil {
		t.Fatal(err)
	}
	if cands := plan.FusionCandidates(); cands != nil {
		t.Errorf("single-hop candidates %v, want none", cands)
	}
}

// Fusing the pair must help an uncontended request: one saved driver
// round-trip plus the merged program's launch amortization.
func TestFusedRunFasterUncontended(t *testing.T) {
	for _, p := range []Placement{Integrated, Standalone, PCIeIntegrated} {
		pipes := []*Pipeline{fusiblePipeline("app")}
		unfusedSys, err := New(DefaultConfig(p), pipes)
		if err != nil {
			t.Fatal(err)
		}
		unfused, err := unfusedSys.Run()
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(p)
		cfg.FuseHops = []FusePair{{App: 0, Hop: 0}}
		fusedSys, err := New(cfg, pipes)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := fusedSys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if fused.MeanTotal() >= unfused.MeanTotal() {
			t.Errorf("%v: fused %v not faster than unfused %v", p, fused.MeanTotal(), unfused.MeanTotal())
		}
	}
}

// Under load with fusion on, every request must retire — a leaked hold
// would wedge the single DRX unit and deadlock the drive loop.
func TestFusedLoadCompletes(t *testing.T) {
	cfg := DefaultConfig(Integrated)
	cfg.Sched = SchedSRS
	cfg.FuseHops = []FusePair{{App: 0, Hop: 0}, {App: 1, Hop: 0}}
	pipes := []*Pipeline{fusiblePipeline("app"), fusiblePipeline("app")}
	s, err := New(cfg, pipes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.Poisson, Rate: 3000, Requests: 24, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range rep.PerApp {
		if a.Completed != a.Requests {
			t.Errorf("%s: %d/%d completed", a.App, a.Completed, a.Requests)
		}
	}
}

// Fusion under fault injection: holds must never leak across watchdog
// degradation, transient retries, or abandonment — every request still
// retires and the run stays deterministic.
func TestFusedFaultedLoadCompletes(t *testing.T) {
	run := func() traffic.LoadReport {
		cfg := DefaultConfig(Integrated)
		cfg.FuseHops = []FusePair{{App: 0, Hop: 0}}
		cfg.Faults = &faults.Plan{
			Seed:          5,
			DRXMTBF:       2 * sim.Millisecond,
			DRXRepair:     500 * sim.Microsecond,
			TransientProb: 0.10,
		}
		r := faults.DefaultRetry()
		cfg.Retry = r
		s, err := New(cfg, []*Pipeline{fusiblePipeline("app")})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.Poisson, Rate: 4000, Requests: 32, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep := run()
	a := rep.PerApp[0]
	if a.Completed+a.Abandoned != a.Requests {
		t.Fatalf("requests leaked: completed %d + abandoned %d != %d", a.Completed, a.Abandoned, a.Requests)
	}
	if a.Degraded == 0 && a.Retries == 0 {
		t.Error("fault plan never fired; the test exercises nothing")
	}
	if got := run(); got.String() != rep.String() {
		t.Error("faulted fused run is not deterministic")
	}
}

// With FuseHops empty the flow must stay bit-for-bit the historical
// unfused behavior: same report, same trace-relevant occupancy.
func TestEmptyFuseHopsBitIdentical(t *testing.T) {
	run := func(cfg Config) string {
		s, err := New(cfg, []*Pipeline{fusiblePipeline("app")})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.RunLoad(traffic.Spec{Arrival: traffic.Poisson, Rate: 2000, Requests: 16, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	base := run(DefaultConfig(Integrated))
	cfg := DefaultConfig(Integrated)
	cfg.FuseHops = []FusePair{}
	if got := run(cfg); got != base {
		t.Error("empty FuseHops changed the serving report")
	}
}

// fusedLoad runs two fusible apps with both hop pairs fused under EDF,
// optionally with DRX outages, transient faults, and the default retry
// ladder; batched applies the batching window on top (nil = unbatched).
func fusedLoad(p Placement, faulty bool, batched func(*Config)) (traffic.LoadReport, error) {
	cfg := DefaultConfig(p)
	cfg.Sched = SchedEDF
	cfg.FuseHops = []FusePair{{App: 0, Hop: 0}, {App: 1, Hop: 0}}
	if faulty {
		cfg.Faults = &faults.Plan{
			Seed:          5,
			DRXMTBF:       2 * sim.Millisecond,
			DRXRepair:     300 * sim.Microsecond,
			TransientProb: 0.10,
		}
		cfg.Retry = faults.DefaultRetry()
	}
	if batched != nil {
		batched(&cfg)
	}
	s, err := New(cfg, []*Pipeline{fusiblePipeline("a"), fusiblePipeline("b")})
	if err != nil {
		return traffic.LoadReport{}, err
	}
	return s.RunLoad(traffic.Spec{
		Arrival: traffic.Poisson, Rate: 20000, Requests: 40, Seed: 13,
		Deadline: 5 * sim.Millisecond,
	})
}

func window(d sim.Duration) func(*Config) {
	return func(c *Config) { c.BatchWindow = d; c.BatchMax = 8 }
}

var fusionPlacements = []Placement{Integrated, Standalone, PCIeIntegrated}

// Fusion composes with batching: the fused leader/follower hold is unit
// state, so a batch holds the DRX across the gap exactly like a solo
// request. Every fused, batched run must drain on every fusion-legal
// placement, with and without faults.
func TestFusedBatchedLoadCompletes(t *testing.T) {
	for _, p := range fusionPlacements {
		for _, faulty := range []bool{false, true} {
			rep, err := fusedLoad(p, faulty, window(200*sim.Microsecond))
			if err != nil {
				t.Fatalf("%v faults=%v: %v", p, faulty, err)
			}
			for _, a := range rep.PerApp {
				if a.Completed+a.Abandoned != a.Requests {
					t.Errorf("%v faults=%v %s: completed %d + abandoned %d != %d",
						p, faulty, a.App, a.Completed, a.Abandoned, a.Requests)
				}
				if a.BatchedRequests <= a.Batches {
					t.Errorf("%v faults=%v %s: %d batches carrying %d requests; no coalescing",
						p, faulty, a.App, a.Batches, a.BatchedRequests)
				}
				if faulty && a.Retries == 0 && a.Degraded == 0 {
					t.Errorf("%v %s: fault plan never fired", p, a.App)
				}
			}
		}
	}
}

// Fused, batched reports are byte-identical at any sweep worker count.
func TestFusedBatchedDeterministicAcrossWorkers(t *testing.T) {
	type cell struct {
		p      Placement
		faulty bool
	}
	var cells []cell
	for _, p := range fusionPlacements {
		cells = append(cells, cell{p, false}, cell{p, true})
	}
	runAll := func(workers int) []string {
		prev := sweep.SetWorkers(workers)
		defer sweep.SetWorkers(prev)
		out, err := sweep.Map(cells, func(_ int, c cell) (string, error) {
			rep, err := fusedLoad(c.p, c.faulty, window(200*sim.Microsecond))
			return rep.String(), err
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := runAll(1)
	for _, w := range []int{2, 8} {
		got := runAll(w)
		for i := range cells {
			if got[i] != want[i] {
				t.Errorf("%v faults=%v: report differs between 1 and %d workers", cells[i].p, cells[i].faulty, w)
			}
		}
	}
}

// A zero window routes a fused config down the unbatched fused path
// byte-for-byte.
func TestFusedWindowZeroByteIdenticalToUnbatched(t *testing.T) {
	for _, faulty := range []bool{false, true} {
		zero, err := fusedLoad(Integrated, faulty, window(0))
		if err != nil {
			t.Fatal(err)
		}
		base, err := fusedLoad(Integrated, faulty, nil)
		if err != nil {
			t.Fatal(err)
		}
		if zero.String() != base.String() {
			t.Errorf("faults=%v: window=0 fused run diverged from the unbatched fused run:\n%s\nwant:\n%s", faulty, zero, base)
		}
	}
}
