package dmxsys

import (
	"fmt"
	"sync"

	"dmx/internal/cpu"
	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/energy"
	"dmx/internal/faults"
	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/restructure"
	"dmx/internal/sim"
	"dmx/internal/sweep"
	"dmx/internal/tensor"
)

// System is one assembled server: fabric, host resources, per-device
// service stations, and the application instances placed on it.
type System struct {
	Eng    *sim.Engine
	Fabric *pcie.Fabric
	cfg    Config

	// Host execution resources. The two channels model a malleable
	// parallel machine: a job posts its arithmetic work on cpuCompute
	// (ops at the socket's effective vector rate) and its traffic on
	// cpuMem (bytes at the socket bandwidth); fair sharing across jobs
	// gives each concurrent restructuring its 1/n of both, matching the
	// contention behavior of Fig. 3.
	cpuCompute *sim.Channel
	cpuMem     *sim.Channel

	apps    []*appInstance
	servers map[string]*sim.Server // accel and DRX service stations
	// queueSets holds each bump-in-the-wire DRX's RX/TX data queues,
	// keyed like its server ("drx.<accel device>").
	queueSets map[string]*QueueSet
	nSwitches int
	nDRX      int
	// localBytes counts bump-in-the-wire DRX↔accel movement that stays
	// off the fabric but still costs transfer energy.
	localBytes int64
	// irqTimes is the sliding window of recent completion events driving
	// the interrupt/polling decision.
	irqTimes []sim.Time

	// plan is the immutable topology/timing plan this replica was
	// materialized from (shared across fleet replicas).
	plan *Plan
	// prefix namespaces every station, link, and trace track of this
	// replica ("" single-host, "h3/" in a fleet).
	prefix string
	// drxServers lists the DRX service stations for energy metering
	// (identifying them by name breaks under host prefixes).
	drxServers []*sim.Server

	// rec is the structured event sink (nil = tracing disabled). It is
	// cfg.Obs, or an internal recorder when only the text Trace hook is
	// configured.
	rec *obs.Recorder

	// unitPool recycles retired unit shells (members slice included) so
	// steady-state serving, solo or batched, never allocates a walker
	// beyond the requests themselves.
	unitPool []*unit
	// units counts the shells ever allocated: once a run drains, the
	// pool must hold every one of them (a missing shell leaked).
	units int

	// inj is the fault injector (nil = no faults). hazardous is true
	// when faults or a retry policy are active; every fault/retry check
	// in the request machine is gated on it so the fault-free flow
	// stays bit-for-bit identical to the historical behavior.
	inj       *faults.Injector
	hazardous bool

	// err is the first flow error (invalid fabric route, queue
	// accounting violation, DRX timing failure). The request machine
	// records it via fail instead of panicking; Run and RunLoad
	// surface it after the engine drains.
	err error
}

// fail records the first flow error.
func (s *System) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// appInstance is one running application.
type appInstance struct {
	id   int
	pipe *Pipeline
	// accelDev[k] is the fabric device of stage k (empty for AllCPU).
	accelDev []string
	// drxServer[k] serves hop k's restructuring (nil when on CPU).
	drxServer []*sim.Server
	// standalone DRX device name, when applicable.
	sdrxDev string
	// switch the app's devices live on.
	sw string

	// track is the app instance's trace timeline name.
	track string
	// requests counts admitted requests, giving each streamed request
	// its own trace track (spans of one track must nest).
	requests int

	// inflight counts requests admitted and not yet retired; admission
	// control (Config.AdmitLimit) rejects arrivals past the limit.
	inflight int

	// Continuous-batching state. pending holds the open accumulation
	// window's members (in arrival order); flushRef/flushArmed track the
	// pending window-expiry event and flushFn is its preallocated
	// closure so re-arming the window never allocates. nbatches and
	// batchedReqs feed the LoadReport batching line; maxBatch caps the
	// batch size so a bump-in-the-wire batch's hop payload always fits
	// the inline DRX data queues (0 = uncapped).
	pending     []*request
	flushRef    sim.EventRef
	flushArmed  bool
	flushFn     func()
	nbatches    int
	batchedReqs int
	maxBatch    int

	// remAtKernel[k] / remAtHop[k] are the precomputed station service
	// demands still ahead of a request when it submits stage k's kernel
	// / hop k's restructure — the SchedSRS scheduling keys, derived from
	// the same per-stage model as the capacity bound (nil for AllCPU,
	// which has no contended stations).
	remAtKernel []sim.Duration
	remAtHop    []sim.Duration
	// hopDRX[k] is hop k's per-request DRX service time (nil when the
	// placement restructures on the CPU). Plan state, shared read-only.
	hopDRX []sim.Duration

	// fusion[k] is hop k's role in a fused pair (nil when Config.FuseHops
	// is empty — the unfused flow, bit-for-bit). Plan state, shared
	// read-only across replicas.
	fusion []hopFusion

	rep AppReport
}

// Plan is the shareable immutable half of a System: validated layout
// (switch/device/card packing), warmed DRX timings, scheduling tables,
// and analytic capacity bounds — everything that depends only on
// (Config, pipelines). One Plan materializes any number of cheap
// replicas via Instantiate; New is the single-host shorthand.
type Plan struct {
	cfg   Config
	pipes []*Pipeline

	apps      []planApp
	nSwitches int
	nDRX      int
	nCards    int
}

// planApp is one pipeline's placement decisions and precomputed tables.
type planApp struct {
	// sw is the plain (unprefixed) switch the app's devices live on
	// ("" for AllCPU); newSwitch is true when this app opens it.
	sw        string
	newSwitch bool
	// cardDev is the plain standalone DRX card device ("" unless the
	// Standalone placement); newCard is true when this app brings it up.
	cardDev string
	newCard bool

	remAtKernel []sim.Duration
	remAtHop    []sim.Duration
	hopDRX      []sim.Duration
	maxBatch    int
	fusion      []hopFusion

	cap Capacity
}

// fuseRole tags a hop's part in a fused pair.
type fuseRole uint8

const (
	fuseNone fuseRole = iota
	// fuseLeader runs the fused program's first segment, then holds the
	// DRX unit (resident context) until its follower resumes.
	fuseLeader
	// fuseFollower resumes the fused program's second segment on the
	// held unit, skipping driver and DMA-descriptor setup.
	fuseFollower
)

// hopFusion is one hop's role and service segment under fusion. The
// fused program's total service splits across the pair proportionally to
// the two unfused times, so each hop's segment reflects its share of the
// merged program's work.
type hopFusion struct {
	role fuseRole
	part sim.Duration
}

// fusionAt reports hop k's fusion role (fuseNone when fusion is off).
func (a *appInstance) fusionAt(k int) hopFusion {
	if a.fusion == nil {
		return hopFusion{}
	}
	return a.fusion[k]
}

// Config returns the plan's configuration.
func (p *Plan) Config() Config { return p.cfg }

// Apps reports how many pipelines the plan places.
func (p *Plan) Apps() int { return len(p.pipes) }

// Pipeline returns app i's pipeline.
func (p *Plan) Pipeline(i int) *Pipeline { return p.pipes[i] }

// NewPlan validates the configuration and pipelines and computes the
// shareable half of a System: layout, warmed DRX timings, scheduling
// tables, and capacity bounds.
func NewPlan(cfg Config, pipelines []*Pipeline) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(pipelines) == 0 {
		return nil, fmt.Errorf("dmxsys: no pipelines")
	}
	p := &Plan{cfg: cfg, pipes: pipelines}
	for _, fp := range cfg.FuseHops {
		if fp.App >= len(pipelines) {
			return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: only %d pipelines", fp.App, fp.Hop, len(pipelines))
		}
	}
	if cfg.Placement == Integrated {
		p.nDRX = 1
	}
	curSwitch := ""
	slotsLeft := 0
	// Standalone cards are shared by up to AppsPerStandaloneCard apps on
	// the same switch.
	cardDev := ""
	cardAppsLeft := 0
	for i, pipe := range pipelines {
		if err := pipe.Validate(); err != nil {
			return nil, err
		}
		pa := planApp{}
		// Slot accounting covers accelerator ports; standalone DRX cards
		// ride dedicated card slots on the same switch so every placement
		// packs applications identically (the comparison isolates data
		// motion, not topology density).
		needCard := cfg.Placement == Standalone && cardAppsLeft == 0
		need := len(pipe.Stages)
		if need > cfg.SlotsPerSwitch {
			return nil, fmt.Errorf("dmxsys: %s needs %d slots, switch has %d", pipe.Name, need, cfg.SlotsPerSwitch)
		}
		if cfg.Placement != AllCPU && need > slotsLeft {
			// A fresh switch also forces a fresh card: point-to-point DMA
			// to the card must stay under one switch.
			if cfg.Placement == Standalone {
				needCard = true
			}
			curSwitch = fmt.Sprintf("sw%d", p.nSwitches)
			pa.newSwitch = true
			p.nSwitches++
			slotsLeft = cfg.SlotsPerSwitch
			if cfg.Placement == PCIeIntegrated {
				p.nDRX++
			}
		}
		pa.sw = curSwitch
		if cfg.Placement != AllCPU {
			slotsLeft -= need
		}

		switch cfg.Placement {
		case Standalone:
			if needCard {
				cardDev = fmt.Sprintf("sdrx%d", p.nCards)
				pa.newCard = true
				p.nCards++
				p.nDRX++
				cardAppsLeft = cfg.AppsPerStandaloneCard
			}
			cardAppsLeft--
			pa.cardDev = cardDev
		case BumpInTheWire:
			// One DRX inline with every accelerator; the terminal
			// accelerator's DRX exists too (pass-through in Fig. 10
			// step 10) and counts for energy.
			for k := range pipe.Hops {
				p.nDRX++
				if pipe.Hops[k].InBytes > QueuePairBytes || pipe.Hops[k].OutBytes > QueuePairBytes {
					return nil, fmt.Errorf("dmxsys: %s hop %d payload exceeds the %d MB data queue",
						pipe.Name, k, QueuePairBytes>>20)
				}
			}
			p.nDRX++
		}

		// Resolve every hop's DRX service time once; the walker, the
		// scheduling tables, and the capacity bound all read this table.
		if cfg.Placement.UsesDRX() {
			pa.hopDRX = make([]sim.Duration, len(pipe.Hops))
			for k, h := range pipe.Hops {
				d, err := drxTime(cfg.DRX, h.Kernel)
				if err != nil {
					return nil, err
				}
				pa.hopDRX[k] = d
			}
		}

		// Resolve this app's fused pairs: compile the merged program, time
		// it, and split its service across the pair proportionally to the
		// unfused times. Must precede the SRS tables and the capacity
		// bound, which both consume the split.
		for _, fp := range cfg.FuseHops {
			if fp.App != i {
				continue
			}
			if fp.Hop+1 >= len(pipe.Hops) {
				return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: %s has %d hops (need an adjacent pair)",
					fp.App, fp.Hop, pipe.Name, len(pipe.Hops))
			}
			k1, k2 := pipe.Hops[fp.Hop].Kernel, pipe.Hops[fp.Hop+1].Kernel
			fused, err := drxc.FusedKernel(k1, k2)
			if err != nil {
				return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: %w", fp.App, fp.Hop, err)
			}
			ft, err := drxTime(cfg.DRX, fused)
			if err != nil {
				return nil, fmt.Errorf("dmxsys: fuse pair app=%d hop=%d: %w", fp.App, fp.Hop, err)
			}
			if pa.fusion == nil {
				pa.fusion = make([]hopFusion, len(pipe.Hops))
			}
			t1, t2 := pa.hopDRX[fp.Hop], pa.hopDRX[fp.Hop+1]
			part1 := ft / 2
			if t1+t2 > 0 {
				part1 = sim.Duration(float64(ft) * float64(t1) / float64(t1+t2))
			}
			pa.fusion[fp.Hop] = hopFusion{role: fuseLeader, part: part1}
			pa.fusion[fp.Hop+1] = hopFusion{role: fuseFollower, part: ft - part1}
		}

		// Remaining-service tables (the SchedSRS keys): walk the pipeline
		// backwards accumulating each station's precomputed service
		// demand. MultiAxl hops restructure on the uncontended CPU
		// channels, so they contribute nothing to station demand.
		if cfg.Placement != AllCPU {
			n := len(pipe.Stages)
			pa.remAtKernel = make([]sim.Duration, n)
			pa.remAtHop = make([]sim.Duration, len(pipe.Hops))
			for k := n - 1; k >= 0; k-- {
				svc := pipe.Stages[k].Accel.Latency(pipe.Stages[k].InBytes)
				if k < len(pipe.Hops) {
					hop := sim.Duration(0)
					if cfg.Placement.UsesDRX() {
						hop = pa.hopDRX[k]
						if pa.fusion != nil && pa.fusion[k].role != fuseNone {
							// A fused hop's station demand is its segment of
							// the merged program.
							hop = pa.fusion[k].part
						}
					}
					pa.remAtHop[k] = hop + pa.remAtKernel[k+1]
					pa.remAtKernel[k] = svc + pa.remAtHop[k]
				} else {
					pa.remAtKernel[k] = svc
				}
			}
		}

		// Batch-size ceiling: a bump-in-the-wire batch moves n× a hop's
		// payload through the inline DRX data queues, so cap n where the
		// scaled payload would exceed a queue (otherwise the batch could
		// never be admitted and the flow would deadlock).
		if cfg.Placement == BumpInTheWire && cfg.BatchWindow > 0 {
			for _, h := range pipe.Hops {
				per := h.InBytes
				if h.OutBytes > per {
					per = h.OutBytes
				}
				if per <= 0 {
					continue
				}
				cap := int(QueuePairBytes / per)
				if cap < 1 {
					cap = 1
				}
				if pa.maxBatch == 0 || cap < pa.maxBatch {
					pa.maxBatch = cap
				}
			}
		}

		pa.cap = p.appCapacity(i, &pa)
		p.apps = append(p.apps, pa)
	}
	return p, nil
}

// HostOpts parameterizes one replica materialized from a Plan.
type HostOpts struct {
	// Prefix namespaces every station, link, and trace track of the
	// replica ("h3/" in a fleet). Empty reproduces the single-host
	// names bit-for-bit.
	Prefix string
	// Obs, when set, overrides cfg.Obs as the replica's event sink
	// (fleet replicas share one recorder on one engine).
	Obs *obs.Recorder
}

// Instantiate materializes one replica of the plan on the engine:
// fabric, channels, service stations, queues, and per-app runtime
// state. The expensive plan-time work (validation, DRX timing,
// scheduling tables) is shared; replicas are cheap. Several replicas
// may share one engine when their prefixes differ.
func (p *Plan) Instantiate(eng *sim.Engine, opts HostOpts) (*System, error) {
	cfg := p.cfg
	pfx := opts.Prefix
	s := &System{
		Eng:       eng,
		Fabric:    pcie.New(eng),
		cfg:       cfg,
		plan:      p,
		prefix:    pfx,
		servers:   make(map[string]*sim.Server),
		queueSets: make(map[string]*QueueSet),
		nSwitches: p.nSwitches,
		nDRX:      p.nDRX,
	}
	// Wire the structured trace sink. A text-only Trace hook gets an
	// internal recorder; the classic line log is a streamed rendering of
	// the structured events (obs.RenderText), so both sinks always agree.
	s.rec = opts.Obs
	if s.rec == nil {
		s.rec = cfg.Obs
	}
	if s.rec == nil && cfg.Trace != nil {
		s.rec = obs.New()
	}
	if s.rec != nil {
		if trace := cfg.Trace; trace != nil {
			prev := s.rec.OnEvent
			s.rec.OnEvent = func(ev *obs.Event) {
				if prev != nil {
					prev(ev)
				}
				if line, ok := obs.RenderText(ev); ok {
					trace(sim.Time(ev.TS), ev.App, line)
				}
			}
		}
		eng.Obs = s.rec
	}

	// Fault injection: a disabled plan yields a nil injector, and every
	// downstream query is nil-safe, so the fault-free build is
	// unchanged. Station names are host-prefixed, and the injector's
	// timelines key off the station name, so fleet replicas draw
	// independent incident streams from the same seed.
	s.inj = faults.New(cfg.Faults, s.rec)
	s.inj.Bind(eng)
	s.hazardous = s.inj.Enabled() || cfg.Retry.Enabled()
	if s.inj.Enabled() {
		s.Fabric.SetFaults(s.inj)
	}

	m := cfg.CPU
	opsPerSec := float64(m.Cores) * m.FreqHz * float64(m.SIMDLanes) * m.IssueEff
	s.cpuCompute = sim.NewChannel(eng, pfx+"cpu.compute", opsPerSec)
	s.cpuMem = sim.NewChannel(eng, pfx+"cpu.mem", m.MemBWBytes)

	accelLink := pcie.LinkConfig{Gen: cfg.Gen, Lanes: cfg.AccelLanes}
	uplink := pcie.LinkConfig{Gen: cfg.Gen, Lanes: cfg.UplinkLanes}

	integratedDRX := (*sim.Server)(nil)
	if cfg.Placement == Integrated {
		integratedDRX = sim.NewServerDisc(eng, pfx+"drx.integrated", 1, cfg.discipline())
		s.servers[pfx+"drx.integrated"] = integratedDRX
		s.drxServers = append(s.drxServers, integratedDRX)
	}
	var card *sim.Server

	for i, pipe := range p.pipes {
		pa := &p.apps[i]
		a := &appInstance{id: i, pipe: pipe}
		a.rep.App = pipe.Name
		a.track = fmt.Sprintf("%s%s#%d", pfx, pipe.Name, i)
		if pa.sw != "" {
			a.sw = pfx + pa.sw
		}
		if pa.newSwitch {
			if err := s.Fabric.AddSwitch(a.sw, uplink); err != nil {
				return nil, err
			}
			if cfg.Placement == PCIeIntegrated {
				unit := sim.NewServerDisc(eng, "drx."+a.sw, cfg.PCIeIntegratedSlots, cfg.discipline())
				s.servers["drx."+a.sw] = unit
				s.drxServers = append(s.drxServers, unit)
			}
		}

		if cfg.Placement != AllCPU {
			for k, st := range pipe.Stages {
				dev := fmt.Sprintf("%sa%d.%d", pfx, i, k)
				if err := s.Fabric.AddDevice(dev, a.sw, accelLink); err != nil {
					return nil, err
				}
				a.accelDev = append(a.accelDev, dev)
				s.servers[dev] = sim.NewServerDisc(eng, dev+":"+st.Accel.Name, 1, cfg.discipline())
			}
		}

		a.drxServer = make([]*sim.Server, len(pipe.Hops))
		switch cfg.Placement {
		case Integrated:
			for k := range pipe.Hops {
				a.drxServer[k] = integratedDRX
			}
		case Standalone:
			if pa.newCard {
				dev := pfx + pa.cardDev
				if err := s.Fabric.AddDevice(dev, a.sw, accelLink); err != nil {
					return nil, err
				}
				card = sim.NewServerDisc(eng, dev, 1, cfg.discipline())
				s.servers[dev] = card
				s.drxServers = append(s.drxServers, card)
			}
			a.sdrxDev = pfx + pa.cardDev
			for k := range pipe.Hops {
				a.drxServer[k] = card
			}
		case PCIeIntegrated:
			unit := s.servers["drx."+a.sw]
			for k := range pipe.Hops {
				a.drxServer[k] = unit
			}
		case BumpInTheWire:
			// One DRX inline with every accelerator; hop k runs on the
			// upstream accelerator's DRX (Fig. 10: DRX_1 restructures).
			// Each DRX statically partitions its queue memory across the
			// chain's peers (Sec. V).
			for k := range pipe.Hops {
				name := "drx." + a.accelDev[k]
				unit := sim.NewServerDisc(eng, name, 1, cfg.discipline())
				s.servers[name] = unit
				a.drxServer[k] = unit
				s.drxServers = append(s.drxServers, unit)
				qs, err := NewQueueSet(name, a.accelDev)
				if err != nil {
					return nil, err
				}
				s.queueSets[name] = qs
			}
		}

		// The scheduling and DRX service tables, batch ceiling, and fusion
		// table are plan state: shared read-only across replicas.
		a.remAtKernel = pa.remAtKernel
		a.remAtHop = pa.remAtHop
		a.hopDRX = pa.hopDRX
		a.maxBatch = pa.maxBatch
		a.fusion = pa.fusion

		// Preallocated window-expiry closure: arming the batch window in
		// steady state reuses it instead of allocating per window.
		a.flushFn = func() {
			a.flushArmed = false
			s.flush(a)
		}

		s.apps = append(s.apps, a)
	}
	return s, nil
}

// New assembles a system running the given pipelines concurrently (one
// app instance per entry). It is NewPlan + Instantiate on a fresh
// engine — bit-for-bit the historical single-host build.
func New(cfg Config, pipelines []*Pipeline) (*System, error) {
	p, err := NewPlan(cfg, pipelines)
	if err != nil {
		return nil, err
	}
	return p.Instantiate(sim.NewEngine(), HostOpts{})
}

// drxTimeCache memoizes simulated DRX durations across System builds:
// experiments sweep placements and concurrency over the same kernels,
// and the machine-level simulation is deterministic per (kernel
// signature, hardware config). The sync.Map makes the cache safe under
// the harness's parallel sweeps; a duplicated concurrent compute stores
// the same deterministic value, so last-write-wins is harmless.
var drxTimeCache sync.Map // drxTimeKey → sim.Duration

// drxTimeKey identifies a (kernel, DRX hardware) timing in the
// process-wide cache. The full drx.Config is embedded in the key: a
// fleet may mix per-host DRX geometries, and hosts differing in any
// field — clock, lanes, scratchpad, instruction cache, DRAM size or
// bandwidth — must never cross-serve each other's cached times, while
// N identical replicas all hit the same entry.
type drxTimeKey struct {
	sig string
	cfg drx.Config
}

// drxTime resolves one kernel's DRX duration under dcfg: the
// process-wide cache first, then compile + simulate. It touches no
// plan or system state, so plan building, collectives, warm-up, and
// post-plan queries all share it from any goroutine.
func drxTime(dcfg drx.Config, k *restructure.Kernel) (sim.Duration, error) {
	key := drxTimeKey{sig: k.Signature(), cfg: dcfg}
	if d, ok := drxTimeCache.Load(key); ok {
		return d.(sim.Duration), nil
	}
	d, err := drxTimeFor(dcfg, k)
	if err != nil {
		return 0, err
	}
	drxTimeCache.Store(key, d)
	return d, nil
}

// FusionCandidate is one legal adjacent-hop fusion under the plan's
// placement, with the analytic DRX service times a search seeds from:
// fusing trades (Unfused − Fused) of execution plus one saved driver
// round trip against holding the unit across the intermediate stage.
type FusionCandidate struct {
	App, Hop int
	// Unfused is the pair's summed standalone DRX service.
	Unfused sim.Duration
	// Fused is the merged program's single DRX service.
	Fused sim.Duration
}

// FusionCandidates enumerates every adjacent hop pair that could legally
// fuse under the plan's placement: the placement shares one DRX unit
// across adjacent hops, the two kernels chain (restructure.Fuse accepts
// them), and the merged program compiles. Illegal or infusible pairs are
// silently skipped — the enumeration answers "what could a search try",
// not "what did the user ask for" (NewPlan errors on explicit FuseHops
// that do not apply). Safe after NewPlan: timings resolve through the
// process-wide cache, never through plan state.
func (p *Plan) FusionCandidates() []FusionCandidate {
	switch p.cfg.Placement {
	case Integrated, Standalone, PCIeIntegrated:
	default:
		return nil
	}
	var out []FusionCandidate
	for i, pipe := range p.pipes {
		for k := 0; k+1 < len(pipe.Hops); k++ {
			k1, k2 := pipe.Hops[k].Kernel, pipe.Hops[k+1].Kernel
			fused, err := drxc.FusedKernel(k1, k2)
			if err != nil {
				continue
			}
			ft, err := drxTime(p.cfg.DRX, fused)
			if err != nil {
				continue
			}
			out = append(out, FusionCandidate{
				App:     i,
				Hop:     k,
				Unfused: p.apps[i].hopDRX[k] + p.apps[i].hopDRX[k+1],
				Fused:   ft,
			})
		}
	}
	return out
}

// drxTimeFor compiles and simulates a restructuring kernel on a DRX
// configuration. DRX execution is data-independent, so zero-filled
// inputs time identically to real data. The compile goes through drxc's
// process-wide program cache (shared with dmxrt's enqueue path and
// populated by warm-up), and the machine run is entirely local state, so
// concurrent calls (for distinct or even equal kernels) are race-free.
func drxTimeFor(dcfg drx.Config, k *restructure.Kernel) (sim.Duration, error) {
	c, err := drxc.CompileCached(k, dcfg)
	if err != nil {
		return 0, fmt.Errorf("dmxsys: compiling %s for DRX: %w", k.Name, err)
	}
	m, err := drx.New(dcfg)
	if err != nil {
		return 0, err
	}
	inputs := make(map[string]*tensor.Tensor)
	for _, p := range k.Inputs() {
		inputs[p.Name] = tensor.New(p.DType, p.Shape...)
	}
	_, res, err := drxc.Execute(c, m, inputs)
	if err != nil {
		return 0, fmt.Errorf("dmxsys: timing %s on DRX: %w", k.Name, err)
	}
	return sim.FromSeconds(res.Seconds(dcfg.ClockHz)), nil
}

// WarmDRXTimes pre-computes the process-wide DRX timing cache for every
// distinct kernel of the given pipelines under one DRX configuration,
// compiling kernels concurrently on the sweep worker pool. Call it once
// before a parallel sweep so workers hit a warm cache instead of
// serializing on (or duplicating) the compile/simulate step.
func WarmDRXTimes(dcfg drx.Config, pipelines []*Pipeline) error {
	var kernels []*restructure.Kernel
	seen := make(map[string]bool)
	for _, p := range pipelines {
		for _, h := range p.Hops {
			if sig := h.Kernel.Signature(); !seen[sig] {
				seen[sig] = true
				kernels = append(kernels, h.Kernel)
			}
		}
	}
	return sweep.Each(len(kernels), func(i int) error {
		_, err := drxTime(dcfg, kernels[i])
		return err
	})
}

// DRXServiceTime resolves any kernel's DRX duration under the system's
// DRX configuration, for reports and tests; the request walker reads
// the plan's per-hop table instead.
func (s *System) DRXServiceTime(k *restructure.Kernel) (sim.Duration, error) {
	return drxTime(s.cfg.DRX, k)
}

// driverDelay models completion signaling NAPI-style (Sec. V): each
// completion is normally an interrupt, but when the recent arrival rate
// crosses the coalescing threshold the driver switches to polling and
// per-completion cost drops. The recent-event window is pruned on every
// call, so the mode tracks load dynamically and deterministically.
func (s *System) driverDelay() sim.Duration {
	now := s.Eng.Now()
	cutoff := now.Add(-CoalesceWindow)
	keep := s.irqTimes[:0]
	for _, t := range s.irqTimes {
		if t >= cutoff {
			keep = append(keep, t)
		}
	}
	s.irqTimes = append(keep, now)
	if len(s.irqTimes) > CoalesceThreshold {
		return PollLatency
	}
	return InterruptLatency
}

// cpuJob posts a restructuring (or software kernel) job on the host's
// two shared channels and fires done when both drains complete.
func (s *System) cpuJob(ops int64, bytes int64, done func()) {
	pending := 2
	finish := func() {
		pending--
		if pending == 0 {
			done()
		}
	}
	s.cpuCompute.Start(ops, finish)
	s.cpuMem.Start(bytes, finish)
}

// restructureWork computes the CPU channel work for one kernel.
func (s *System) restructureWork(k *restructure.Kernel) (ops, bytes int64) {
	return restructureWorkFor(s.cfg.CPU, k)
}

// restructureWorkFor is the model-level form shared with the plan-time
// capacity bound.
func restructureWorkFor(m *cpu.Model, k *restructure.Kernel) (ops, bytes int64) {
	for _, st := range k.Stages {
		stats := st.Stats(k)
		ops += stats.Ops
		traffic := float64(stats.BytesIn+stats.BytesOut) * m.ThrashFactor
		if !stats.VectorFriendly {
			traffic *= m.NonStreamPenalty
		}
		bytes += int64(traffic)
	}
	if ops < 1 {
		ops = 1
	}
	if bytes < 1 {
		bytes = 1
	}
	return ops, bytes
}

// Switches reports how many PCIe switches the build instantiated.
func (s *System) Switches() int { return s.nSwitches }

// FaultCounts reports the incidents the injector observed during the
// run (all zero without a fault plan).
func (s *System) FaultCounts() faults.Counts {
	if s.inj == nil {
		return faults.Counts{}
	}
	return s.inj.Counts
}

// OnFaultIncident registers fn to observe every fresh fault incident
// (outage, link window, stall, transient) this host records, called
// synchronously on the host's engine right after the count increments.
// A system without fault injection ignores the hook.
func (s *System) OnFaultIncident(fn func()) {
	if s.inj != nil {
		s.inj.OnIncident = fn
	}
}

// DRXCount reports how many DRX instances the placement deployed.
func (s *System) DRXCount() int { return s.nDRX }

// Energy meters the completed run (call after Run).
func (s *System) energyReport(makespan sim.Duration) (float64, map[string]float64) {
	meter := energy.NewMeter(s.cfg.Energy)
	cpuBusy := s.cpuCompute.BusyTime
	if s.cpuMem.BusyTime > cpuBusy {
		cpuBusy = s.cpuMem.BusyTime
	}
	meter.AddCPU(cpuBusy, makespan)
	for _, a := range s.apps {
		for k, st := range a.pipe.Stages {
			if len(a.accelDev) == 0 {
				continue
			}
			srv := s.servers[a.accelDev[k]]
			meter.AddAccelerator(st.Accel.Name, st.Accel.PowerW, srv.BusyTime)
		}
	}
	if s.nDRX > 0 {
		// drxServers is collected at build time: name-prefix matching
		// breaks once host prefixes namespace the stations.
		var drxBusy sim.Duration
		for _, srv := range s.drxServers {
			drxBusy += srv.BusyTime
		}
		avg := sim.Duration(0)
		if n := len(s.drxServers); n > 0 {
			avg = drxBusy / sim.Duration(n)
		}
		meter.AddDRX(s.nDRX, avg, makespan)
	}
	meter.AddSwitches(s.nSwitches, makespan)
	meter.AddTraffic(s.Fabric.TotalBytes() + s.localBytes)
	return meter.Total(), meter.Breakdown()
}
