package dmxsys

import (
	"errors"
	"fmt"
	"math"

	"dmx/internal/obs"
	"dmx/internal/pcie"
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// This file implements the end-to-end request flow for every system
// configuration as one explicit state machine. What walks the pipeline
// is a *unit: n ≥ 1 requests of one application moving as one payload —
// a solo request is a unit of one, a coalesced batch (batch.go) a unit
// of many. The unit carries the stage cursor (the stage index), the
// phase tracker, and the in-flight hardware state; each member request
// keeps only its own accounting (arrival, deadline, outcome, counters).
// The machine advances through small step methods, one per protocol
// action:
//
//	stepInput → stepKernel → kernelDone → hop* → (k++) stepKernel → ... → stepOutput → complete
//
// with a placement-specific hop sequence between kernels and a pure-CPU
// chain (stepCPUKernel/cpuKernelDone/cpuRestructured) for the AllCPU
// baseline. Run and RunLoad are thin front-ends over the same machine:
// they differ only in the arrival offsets they feed the shared drive
// loop.
//
// Every step is written once for any n. Payload bytes and streamed
// service (DRX restructuring, CPU work) scale by n; an accelerator
// kernel is one launch over n× the bytes, and each leg pays one driver
// round trip and one DMA descriptor — which is where batching wins. At
// n = 1 every scaled quantity is the per-request value, so the solo flow
// is the general flow, not a special case of it.
//
// Every protocol step also emits a structured obs event (see
// internal/obs): an instant at the moment the old text trace logged a
// line, a span when an interval closes (DMA legs, per-phase laps), and a
// flow pair linking the two endpoints of a DMA. The text trace is a
// rendering of these events, never a separate code path.
//
// Errors (fabric transfer failures, queue accounting violations, DRX
// timing failures) do not panic: the unit records the first error on
// the System via fail and stops advancing; the drive loop surfaces it
// from Run/RunLoad after the engine drains.

// phase tags attribute elapsed time in the app report.
type phase int

const (
	phaseKernel phase = iota
	phaseRestructure
	phaseMovement
)

// obsPhase maps the report phase onto the obs taxonomy.
func (p phase) obsPhase() obs.Phase {
	switch p {
	case phaseKernel:
		return obs.PhaseKernel
	case phaseRestructure:
		return obs.PhaseRestructure
	}
	return obs.PhaseMovement
}

// sink is the live trace emission target: the engine's current
// recorder. Sharded fleets swap each lane's recorder for a private
// capture buffer during lookahead windows, so emission sites must read
// it at emission time — s.rec stays the report-time aggregate source
// (and the "is tracing on" gate); sequentially they are one recorder.
func (s *System) sink() *obs.Recorder { return s.Eng.Obs }

// obsInstant emits one protocol instant (a Fig. 10 moment) for app a.
func (s *System) obsInstant(a *appInstance, typ obs.Type, step uint8, track, peer, name string, bytes int64) {
	s.sink().Instant(obs.Time(s.Eng.Now()), typ, step, track, peer, a.pipe.Name, name, bytes)
}

// request is one admitted request's own accounting; the unit it rides
// does the walking.
type request struct {
	// start is the admission instant; deadline is the absolute latency
	// budget (zero = none). RunLoad reads both when the request retires.
	start    sim.Time
	deadline sim.Time

	// track is the request's trace timeline (the app track, suffixed
	// with a request ordinal under streamed execution so concurrent
	// requests never interleave spans on one track).
	track string

	// outcome classifies how the request retired; retries/timeouts
	// accumulate for the report (unit-level incidents are charged to
	// the unit's first member).
	outcome  traffic.Outcome
	retries  int
	timeouts int

	// done retires the request (nil once retired).
	done func(*request)
}

// unit is n ≥ 1 requests of one app walking the pipeline as one
// payload.
type unit struct {
	s *System
	a *appInstance

	// members are the live members in arrival order. Members leave the
	// slice by peeling (solo retry) or when the unit retires.
	members []*request
	// batched marks a unit dispatched as a coalesced batch: it rides its
	// own trace track and rolls transient DRX faults per member, peeling
	// the failures. A solo unit retries in place instead.
	batched bool

	// k is the stage cursor: the index of the pipeline stage the unit
	// is currently executing (or moving its output away from).
	k int

	// track is the unit's trace timeline: the member's track for a solo
	// unit, a "/b%d" batch track otherwise. mark is the phase tracker:
	// the start of the current contiguous segment, closed by lap into
	// one of the three report components.
	track string
	mark  sim.Time

	// leg is the DMA leg currently in flight (legs within one unit are
	// strictly sequential).
	leg dmaLeg
	// rx, tx are the bump-in-the-wire data queues of the hop in
	// progress; rxHeld/txHeld mirror the bytes currently reserved so a
	// degrade or abandon mid-hop can release them (a held reservation
	// would deadlock peer units waiting on queue space).
	rx, tx         *DataQueue
	rxHeld, txHeld int64

	// Fault-handling state, all zero on the fault-free path. attempt
	// numbers the tries of the stage operation in progress; epoch
	// invalidates in-flight completions after a watchdog fires or the
	// shell retires; dead marks a retired (or failed) unit so stale
	// completions drop.
	attempt  int
	epoch    int
	dead     bool
	watchdog sim.EventRef
	wdArmed  bool

	// hold is the DRX slot a fused leader hop retained (nil otherwise).
	// The follower hop resumes the resident program on it, or degradation
	// releases it.
	hold *sim.Hold
}

// dmaLeg is one DMA leg as its completion span reports it: type,
// Fig. 10 step, endpoints, payload, and start instant.
type dmaLeg struct {
	typ      obs.Type
	step     uint8
	from, to string
	bytes    int64
	begin    sim.Time
}

// n is the live member count.
func (u *unit) n() int64 { return int64(len(u.members)) }

// guard wraps a completion callback with the unit's liveness and epoch:
// a completion that lost a watchdog race, or that arrived after the
// unit retired, is dropped. On the fault-free path the callback is
// returned untouched, so timing and allocation behavior are unchanged.
func (u *unit) guard(f func()) func() {
	if !u.s.hazardous {
		return f
	}
	e := u.epoch
	return func() {
		if !u.dead && u.epoch == e {
			f()
		}
	}
}

// arm starts the per-stage watchdog, when one is configured: if the
// guarded operation has not completed within Retry.StageDeadline, the
// in-flight completion is invalidated (epoch bump) and the timeout is
// handled — a kernel re-attempts (kernelTimeout), a restructure
// degrades (degradeHop). The stalled station keeps its slot busy —
// injected faults wedge devices, they do not recall submitted work.
// Naming the handler by a flag rather than a func value keeps the
// fault-free path from allocating a bound method per stage.
func (u *unit) arm(name string, kernel bool) {
	s := u.s
	if !s.hazardous || s.cfg.Retry.StageDeadline <= 0 {
		return
	}
	e := u.epoch
	u.watchdog = s.Eng.Schedule(s.cfg.Retry.StageDeadline, func() {
		if u.dead || u.epoch != e {
			return
		}
		u.epoch++
		u.wdArmed = false
		u.members[0].timeouts++
		s.obsInstant(u.a, obs.TypeTimeout, 0, u.track, "", name, 0)
		if kernel {
			u.kernelTimeout()
		} else {
			u.degradeHop()
		}
	})
	u.wdArmed = true
}

// disarm cancels a pending watchdog (no-op when none is armed).
func (u *unit) disarm() {
	if u.wdArmed {
		u.watchdog.Cancel()
		u.wdArmed = false
	}
}

// releaseQueues returns any bump-in-the-wire queue reservations the
// unit still holds.
func (u *unit) releaseQueues() {
	if u.rxHeld > 0 && u.rx != nil {
		if err := u.rx.Dequeue(u.rxHeld); err != nil {
			u.fail(fmt.Errorf("dmxsys: %w", err))
		}
		u.rxHeld = 0
	}
	if u.txHeld > 0 && u.tx != nil {
		if err := u.tx.Dequeue(u.txHeld); err != nil {
			u.fail(fmt.Errorf("dmxsys: %w", err))
		}
		u.txHeld = 0
	}
}

// releaseHold returns a fused leader's retained DRX slot (no-op when
// none is held). Every path that diverts a unit off the fused flow —
// abandon, degradation — must call it, or the held slot would starve
// every other unit of the station.
func (u *unit) releaseHold() {
	if u.hold != nil {
		u.hold.Release()
		u.hold = nil
	}
}

// abandon retires every member unfinished after the unit's retry budget
// is exhausted (a dead link, a kernel watchdog out of budget): the
// hardware incident is shared, so the whole unit is. Members still
// retire through done so the drive loop's outstanding count drains and
// the run completes.
func (u *unit) abandon() {
	u.disarm()
	u.epoch++ // drop any completion still in flight
	u.releaseQueues()
	u.releaseHold()
	for _, m := range u.members {
		m.outcome = traffic.OutcomeAbandoned
		u.s.obsInstant(u.a, obs.TypeAbandon, 0, m.track, "", "", 0)
		u.finish(m)
	}
	u.release()
}

// admit is the serving front door for one arrival: admission control
// first, then the batching window when one is configured, then a unit
// of one. With admission control and batching both disabled it is
// startRequest, bit-for-bit. (Run admits one request per app, so it
// never reaches a positive limit.)
func (s *System) admit(a *appInstance, deadline sim.Duration, done func(*request)) {
	if s.cfg.AdmitLimit > 0 && a.inflight >= s.cfg.AdmitLimit {
		s.obsInstant(a, obs.TypeReject, 0, a.track, "", "", int64(a.inflight))
		r := &request{track: a.track, outcome: traffic.OutcomeRejected}
		// The request never executes: retire it through done directly so
		// the drive loop's outstanding count drains, without touching
		// a.requests (occupancy and report totals cover executed
		// requests only).
		done(r)
		return
	}
	if s.cfg.BatchWindow > 0 && s.cfg.Placement != AllCPU {
		s.enqueueBatch(a, deadline, done)
		return
	}
	s.startRequest(a, deadline, done)
}

// startRequest admits one request into app a's pipeline, calling done at
// completion. deadline, when positive, is the per-request latency
// budget relative to now.
func (s *System) startRequest(a *appInstance, deadline sim.Duration, done func(*request)) {
	s.dispatch(a, []*request{s.newRequest(a, deadline, done)})
}

// newRequest creates one request of app a without dispatching it (a
// batched member parks in the accumulation window instead).
func (s *System) newRequest(a *appInstance, deadline sim.Duration, done func(*request)) *request {
	now := s.Eng.Now()
	track := a.track
	// Per-request trace tracks matter only when a recorder is attached;
	// skipping the format keeps the headless serving path free of
	// per-request string allocations.
	if s.rec != nil && a.requests > 0 {
		track = fmt.Sprintf("%s/r%d", a.track, a.requests)
	}
	a.requests++
	a.inflight++
	r := &request{track: track, start: now, done: done}
	if deadline > 0 {
		r.deadline = now.Add(deadline)
	}
	return r
}

// dispatch launches members as one unit into their placement's walk. A
// unit of one rides its member's track with phases timed from the
// member's arrival (a window wait is its queueing, as unbatched); a
// coalesced batch gets its own track and times phases from the flush.
func (s *System) dispatch(a *appInstance, members []*request) {
	u := s.newUnit(a)
	u.members = append(u.members, members...)
	if len(members) == 1 {
		u.track, u.mark = members[0].track, members[0].start
	} else {
		u.batched = true
		u.mark = s.Eng.Now()
		u.track = a.track
		if s.rec != nil {
			u.track = fmt.Sprintf("%s/b%d", a.track, a.nbatches)
		}
		a.nbatches++
		a.batchedReqs += len(members)
		s.obsInstant(a, obs.TypeBatch, 0, u.track, "", "", u.n())
	}
	if s.cfg.Placement == AllCPU {
		u.stepCPUKernel()
		return
	}
	u.stepInput()
}

// deadlineKey is the EDF scheduling key of one deadline: the absolute
// deadline, or MaxInt64 for "no deadline" so deadline-carrying work
// always overtakes best-effort work.
func deadlineKey(deadline sim.Time) int64 {
	if deadline == 0 {
		return math.MaxInt64
	}
	return int64(deadline)
}

// key is the unit's scheduling key when submitting to a contended
// station: the most urgent member's deadline under EDF, the unit's
// precomputed station service still ahead (remAt[k], n× for n members)
// under SRS, 0 (ignored) otherwise.
func (u *unit) key(remAt []sim.Duration) int64 {
	switch u.s.cfg.Sched {
	case SchedEDF:
		key := deadlineKey(0)
		for _, m := range u.members {
			if k := deadlineKey(m.deadline); k < key {
				key = k
			}
		}
		return key
	case SchedSRS:
		return int64(remAt[u.k]) * u.n()
	}
	return 0
}

// lap closes the current contiguous segment, attributing it to phase p.
// Phase time is wall-clock per unit (not per member): the report's
// phase components measure resource time, which a batch spends once.
func (u *unit) lap(p phase) {
	now := u.s.Eng.Now()
	d := now.Sub(u.mark)
	if d > 0 {
		op := p.obsPhase()
		u.s.sink().Span(obs.Time(u.mark), obs.Duration(d), obs.TypePhase, op, 0,
			u.track, u.a.pipe.Name, op.String(), 0)
	}
	u.mark = now
	switch p {
	case phaseKernel:
		u.a.rep.KernelTime += d
	case phaseRestructure:
		u.a.rep.RestructureTime += d
	case phaseMovement:
		u.a.rep.MovementTime += d
	}
}

// fail records the unit's error on the System and stops the machine:
// its members never retire, and the drive loop reports the error after
// the engine drains.
func (u *unit) fail(err error) {
	u.s.fail(err)
	u.dead = true
}

// finish retires one member.
func (u *unit) finish(m *request) {
	a := u.a
	a.inflight--
	a.rep.Total = u.s.Eng.Now().Sub(m.start)
	a.rep.Retries += m.retries
	a.rep.Timeouts += m.timeouts
	switch m.outcome {
	case traffic.OutcomeDegraded:
		a.rep.Degraded++
	case traffic.OutcomeAbandoned:
		a.rep.Abandoned++
	}
	if done := m.done; done != nil {
		m.done = nil
		done(m)
	}
}

// complete retires every member (each member's latency runs from its
// own arrival) and returns the shell to the pool.
func (u *unit) complete() {
	for _, m := range u.members {
		u.finish(m)
	}
	u.release()
}

// transfer starts a fabric DMA with link-fault handling: a start that
// fails because an injected link outage is in effect is re-attempted
// under the retry policy, and the unit is abandoned once attempts run
// out; any other error is a hard flow error.
func (u *unit) transfer(from, to string, n int64, done func()) {
	done = u.guard(done)
	u.fabricAttempt(from, to, 1, func() error {
		return u.s.Fabric.Transfer(from, to, n, done)
	})
}

func (u *unit) fabricAttempt(from, to string, attempt int, start func() error) {
	err := start()
	if err == nil {
		return
	}
	s := u.s
	if s.hazardous && errors.Is(err, pcie.ErrLinkDown) {
		if attempt < s.cfg.Retry.Attempts() {
			next := attempt + 1
			u.members[0].retries++
			s.obsInstant(u.a, obs.TypeRetry, 0, u.track, "", from+"→"+to, int64(next))
			s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, next), u.guard(func() {
				u.fabricAttempt(from, to, next, start)
			}))
			return
		}
		u.abandon()
		return
	}
	u.fail(fmt.Errorf("dmxsys: transfer %s→%s: %w", from, to, err))
}

// startLeg begins the DMA leg the unit now has in flight: it emits the
// leg's instant and records the leg for landed.
func (u *unit) startLeg(typ obs.Type, step uint8, from, to string, bytes int64) {
	u.s.obsInstant(u.a, typ, step, from, to, "", bytes)
	u.leg = dmaLeg{typ: typ, step: step, from: from, to: to, bytes: bytes, begin: u.s.Eng.Now()}
}

// dma moves bytes from → to as one fabric DMA leg: it starts the
// transfer after delay (the driver round trip and descriptor setup the
// leg pays); arrived runs on delivery.
func (u *unit) dma(typ obs.Type, step uint8, from, to string, bytes int64, delay sim.Duration, arrived func()) {
	u.s.Eng.Schedule(delay, u.guard(func() {
		u.startLeg(typ, step, from, to, bytes)
		u.transfer(from, to, bytes, arrived)
	}))
}

// landed closes the leg in flight, called from the transfer's
// completion: a span on the unit's trace track plus a flow arrow between
// the source and destination device tracks, then the movement lap.
func (u *unit) landed() {
	if s, l := u.s, &u.leg; s.rec != nil {
		now := s.Eng.Now()
		s.sink().Span(obs.Time(l.begin), obs.Duration(now.Sub(l.begin)), l.typ, obs.PhaseNone,
			l.step, u.track, u.a.pipe.Name, "", l.bytes)
		if l.from != l.to {
			s.sink().FlowPair(obs.Time(l.begin), obs.Time(now), l.typ, l.from, l.to, u.a.pipe.Name, "", l.bytes)
		}
	}
	u.lap(phaseMovement)
}

// stepInput ships the unit's payload host → first accelerator, then
// enters the kernel/hop chain.
func (u *unit) stepInput() {
	a := u.a
	bytes := u.n() * a.pipe.InputBytes
	u.startLeg(obs.TypeInputDMA, 0, pcie.Root, a.accelDev[0], bytes)
	u.transfer(pcie.Root, a.accelDev[0], bytes, u.inputArrived)
}

func (u *unit) inputArrived() {
	u.landed()
	u.stepKernel()
}

// stepKernel enqueues stage k's kernel on its accelerator: one launch
// over n× the bytes, which is where the launch-overhead amortization of
// batching comes from.
func (u *unit) stepKernel() {
	u.attempt = 1
	u.kernelAttempt()
}

func (u *unit) kernelAttempt() {
	s, a, k := u.s, u.a, u.k
	st := a.pipe.Stages[k]
	dev := a.accelDev[k]
	if s.hazardous {
		// An accelerator in a stall window holds the submission until
		// the window closes (the device is wedged, not the driver).
		if stall := s.inj.StallUntil(dev, s.Eng.Now()); stall > 0 {
			s.obsInstant(a, obs.TypeStall, 0, dev, "", st.Accel.Name, int64(stall))
			s.Eng.Schedule(stall, u.guard(u.kernelAttempt))
			return
		}
	}
	step := uint8(0)
	if k > 0 {
		step = obs.StepNextKernel
	}
	bytes := u.n() * st.InBytes
	s.obsInstant(a, obs.TypeKernelEnqueued, step, dev, "", st.Accel.Name, bytes)
	srv := s.servers[dev]
	service := st.Accel.Latency(bytes)
	u.arm(st.Accel.Name, true)
	srv.SubmitKeyed(a.id, u.key(a.remAtKernel), service, u.guard(u.kernelDone))
}

// kernelTimeout handles a stage watchdog firing on a kernel execution:
// re-attempt while the budget lasts (the stale execution's completion
// is already invalidated by the epoch bump), else abandon.
func (u *unit) kernelTimeout() {
	s := u.s
	if u.attempt < s.cfg.Retry.Attempts() {
		u.attempt++
		u.members[0].retries++
		st := u.a.pipe.Stages[u.k]
		s.obsInstant(u.a, obs.TypeRetry, 0, u.track, "", st.Accel.Name, int64(u.attempt))
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, u.attempt), u.guard(u.kernelAttempt))
		return
	}
	u.abandon()
}

func (u *unit) kernelDone() {
	s, a, k := u.s, u.a, u.k
	st := a.pipe.Stages[k]
	u.disarm()
	u.lap(phaseKernel)
	s.obsInstant(a, obs.TypeKernelDone, obs.StepKernelDone, a.accelDev[k], "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		u.stepOutput()
		return
	}
	u.stepHop()
}

// nextStage advances the cursor past the completed hop and fires the
// next kernel.
func (u *unit) nextStage() {
	u.k++
	u.stepKernel()
}

// stepOutput returns the final result to the host.
func (u *unit) stepOutput() {
	a := u.a
	u.dma(obs.TypeOutputDMA, 0, a.accelDev[len(a.accelDev)-1], pcie.Root, u.n()*a.pipe.OutputBytes,
		u.s.driverDelay()+DMASetupLatency, u.outputDone)
}

func (u *unit) outputDone() {
	u.landed()
	u.complete()
}

// stepCPUKernel executes stage k's kernel in software on the shared
// host channels (the AllCPU baseline; there is no device data
// movement).
func (u *unit) stepCPUKernel() {
	s, a, k := u.s, u.a, u.k
	st := a.pipe.Stages[k]
	bytes := u.n() * st.InBytes
	// The kernel's software runtime expressed as compute work: its
	// calibrated 16-core CPU latency times the socket's ops rate.
	work := int64(st.Accel.CPULatency(bytes).Seconds() * s.cpuCompute.Capacity())
	if work < 1 {
		work = 1
	}
	s.obsInstant(a, obs.TypeKernelEnqueued, 0, pcie.Root, "", st.Accel.Name, bytes)
	s.cpuJob(work, bytes, u.cpuKernelDone)
}

func (u *unit) cpuKernelDone() {
	s, a, k := u.s, u.a, u.k
	st := a.pipe.Stages[k]
	u.lap(phaseKernel)
	s.obsInstant(a, obs.TypeKernelDone, 0, pcie.Root, "", st.Accel.Name, 0)
	if k == len(a.pipe.Stages)-1 {
		u.complete()
		return
	}
	u.cpuRestructure(u.cpuRestructured)
}

func (u *unit) cpuRestructured() {
	u.lap(phaseRestructure)
	u.k++
	u.stepCPUKernel()
}

// cpuRestructure runs hop k's restructuring in software on the shared
// host channels, then next. Software restructuring streams the payload,
// so the unit's work is n× the per-request work: nothing amortizes.
func (u *unit) cpuRestructure(next func()) {
	s, a := u.s, u.a
	h := a.pipe.Hops[u.k]
	ops, bytes := s.restructureWork(h.Kernel)
	ops, bytes = ops*u.n(), bytes*u.n()
	s.obsInstant(a, obs.TypeHostRestructure, 0, pcie.Root, "", h.Kernel.Name, u.hopIn())
	s.cpuJob(ops, bytes, next)
}

// hopEntryDelay is the driver cost to enter hop k: a full driver
// round-trip plus DMA-descriptor programming normally, zero when the
// fused program from the previous hop still holds the DRX unit — the
// resident program chained the follower's descriptors when it loaded, so
// no interrupt is taken and no descriptor is programmed.
func (u *unit) hopEntryDelay() sim.Duration {
	if u.hold != nil {
		return 0
	}
	return u.s.driverDelay() + DMASetupLatency
}

// stepHop executes the data motion between stage k and k+1 under the
// system's placement.
func (u *unit) stepHop() {
	switch u.s.cfg.Placement {
	case MultiAxl, Integrated:
		u.hopHostIn()
	case Standalone:
		u.hopCardIn()
	case PCIeIntegrated:
		u.hopSwitchIn()
	case BumpInTheWire:
		u.hopBumpIn()
	default:
		u.fail(fmt.Errorf("dmxsys: hop under %v", u.s.cfg.Placement))
	}
}

// hopIn and hopOut are hop k's payload into and out of restructuring,
// for the whole unit.
func (u *unit) hopIn() int64  { return u.n() * u.a.pipe.Hops[u.k].InBytes }
func (u *unit) hopOut() int64 { return u.n() * u.a.pipe.Hops[u.k].OutBytes }

// hopDone lands hop k's final leg and fires the next kernel.
func (u *unit) hopDone() {
	u.landed()
	u.nextStage()
}

// hopArrived lands hop k's leg into a DRX unit and restructures there.
func (u *unit) hopArrived() {
	u.landed()
	u.restructureDRX()
}

// hopHostIn: (S1) interrupt; DMA accel → host memory; (S2) restructure
// on the host (CPU or integrated DRX).
func (u *unit) hopHostIn() {
	u.dma(obs.TypeHostDMA, 0, u.a.accelDev[u.k], pcie.Root, u.hopIn(), u.hopEntryDelay(), u.hopHostArrived)
}

func (u *unit) hopHostArrived() {
	u.landed()
	u.restructureHost()
}

// hopHostRestructured: (S3) DMA host → next accelerator; (S4) the next
// kernel fires.
func (u *unit) hopHostRestructured() {
	u.lap(phaseRestructure)
	u.dma(obs.TypeHostDMA, 0, pcie.Root, u.a.accelDev[u.k+1], u.hopOut(), DMASetupLatency, u.hopDone)
}

// hopCardIn: P2P DMA accel → the app's standalone DRX card.
func (u *unit) hopCardIn() {
	a := u.a
	u.dma(obs.TypeP2PDMA, obs.StepRXDMA, a.accelDev[u.k], a.sdrxDev, u.hopIn(), u.hopEntryDelay(), u.hopArrived)
}

// hopCardRestructured: P2P from the card to the next accelerator.
func (u *unit) hopCardRestructured() {
	a := u.a
	u.lap(phaseRestructure)
	u.dma(obs.TypeP2PDMA, obs.StepP2PDMA, a.sdrxDev, a.accelDev[u.k+1], u.hopOut(),
		u.s.driverDelay()+DMASetupLatency, u.hopDone)
}

// hopSwitchIn: up into the switch, restructure at line rate, down to
// the peer (saves the DRX round trip; Sec. VII-B).
func (u *unit) hopSwitchIn() {
	s, a := u.s, u.a
	from := a.accelDev[u.k]
	bytes := u.hopIn()
	s.Eng.Schedule(u.hopEntryDelay(), func() {
		u.startLeg(obs.TypeP2PDMA, obs.StepRXDMA, from, "drx."+a.sw, bytes)
		arrived := u.guard(u.hopArrived)
		u.fabricAttempt(from, u.leg.to, 1, func() error {
			return s.Fabric.TransferUp(from, bytes, arrived)
		})
	})
}

// hopSwitchRestructured: straight down to the peer — no driver round
// trip between the in-switch restructure and the down leg.
func (u *unit) hopSwitchRestructured() {
	s, a := u.s, u.a
	to := a.accelDev[u.k+1]
	bytes := u.hopOut()
	u.lap(phaseRestructure)
	u.startLeg(obs.TypeP2PDMA, obs.StepP2PDMA, "drx."+a.sw, to, bytes)
	done := u.guard(u.hopDone)
	u.fabricAttempt(u.leg.from, to, 1, func() error {
		return s.Fabric.TransferDown(to, bytes, done)
	})
}

// hopBumpIn begins the Fig. 10 inline sequence: ① kernel done
// ② interrupt ③④ local move into the inline DRX's RX queue ⑤–⑦
// restructure into the TX queue ⑧ interrupt ⑨⑩ P2P DMA through the
// fabric to the peer accelerator (its own DRX is a pass-through)
// ⑪ kernel fires. Queue head/tail bookkeeping backpressures if a queue
// fills; the batch-size cap (appInstance.maxBatch) guarantees a unit's
// payload fits a queue, so admission always eventually succeeds.
func (u *unit) hopBumpIn() {
	s, a, k := u.s, u.a, u.k
	rx, tx, err := s.hopQueues(a, k)
	if err != nil {
		u.fail(fmt.Errorf("dmxsys: %w", err))
		return
	}
	u.rx, u.tx = rx, tx
	from := a.accelDev[k]
	link := pcie.LinkConfig{Gen: s.cfg.Gen, Lanes: s.cfg.AccelLanes}
	bytes := u.hopIn()
	s.Eng.Schedule(s.driverDelay()+DMASetupLatency, func() {
		s.queueAdmit(u.rx, bytes, func() {
			u.rxHeld = bytes
			u.startLeg(obs.TypeQueueDMA, obs.StepRXDMA, from, "drx."+from, bytes)
			s.localBytes += bytes
			s.Eng.Schedule(sim.BytesAt(bytes, link.Bandwidth()), u.guard(u.hopArrived))
		})
	})
}

// hopBumpRestructured: the restructured payload claims TX queue space
// before the RX slot is released.
func (u *unit) hopBumpRestructured() {
	u.s.queueAdmit(u.tx, u.hopOut(), u.guard(u.hopBumpTXAdmitted))
}

func (u *unit) hopBumpTXAdmitted() {
	a := u.a
	from, to := a.accelDev[u.k], a.accelDev[u.k+1]
	bytes := u.hopOut()
	u.txHeld = bytes
	if u.rx != nil && u.rxHeld > 0 {
		// Release whatever RX share the unit still holds (peeled members
		// took their per-request share with them).
		if err := u.rx.Dequeue(u.rxHeld); err != nil {
			u.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		u.rxHeld = 0
	}
	u.lap(phaseRestructure)
	u.s.obsInstant(a, obs.TypeTXReady, obs.StepTXReady, "drx."+from, "", "", bytes)
	u.dma(obs.TypeP2PDMA, obs.StepP2PDMA, from, to, bytes, u.s.driverDelay()+DMASetupLatency, u.hopBumpDone)
}

func (u *unit) hopBumpDone() {
	if u.tx != nil && u.txHeld > 0 {
		if err := u.tx.Dequeue(u.txHeld); err != nil {
			u.fail(fmt.Errorf("dmxsys: %w", err))
			return
		}
		u.txHeld = 0
	}
	u.hopDone()
}

// restructureHost dispatches hop k's restructuring at the host: on the
// shared CPU channels for MultiAxl, on the single integrated DRX
// otherwise.
func (u *unit) restructureHost() {
	if u.s.cfg.Placement == Integrated {
		u.restructureDRX()
		return
	}
	u.cpuRestructure(u.hopHostRestructured)
}

// restructureDRX queues hop k's kernel on the app's DRX unit, at n× the
// per-request service (DRX execution streams data; a batch buys one
// dispatch, not faster restructuring), handling injected faults:
//
//   - a unit inside an outage window degrades the hop to the CPU
//     fallback immediately (the incident is device-level; every
//     member's payload is on it);
//   - a transient restructure error is retried with backoff until the
//     attempt budget runs out, then degrades — a batch rolls it per
//     member and peels the failures into units of their own (see
//     faulted);
//   - a configured stage watchdog degrades a restructure that overstays
//     its deadline (e.g. parked behind a retry storm).
func (u *unit) restructureDRX() {
	u.attempt = 1
	u.restructureAttempt()
}

func (u *unit) restructureAttempt() {
	s, a, k := u.s, u.a, u.k
	h := a.pipe.Hops[k]
	drx := a.drxServer[k].Name()
	if s.hazardous {
		if down, _ := s.inj.DRXDown(drx, s.Eng.Now()); down {
			u.degradeHop()
			return
		}
	}
	s.obsInstant(a, obs.TypeRestructure, obs.StepRestructure, drx, "", h.Kernel.Name, u.hopIn())
	switch f := a.fusionAt(k); f.role {
	case fuseLeader:
		u.fusedLeader(f)
		return
	case fuseFollower:
		if u.hold != nil {
			u.fusedResume(f)
			return
		}
		// No resident program (the leader degraded, or a transient retry
		// released the hold): fall through to the standalone submit of
		// this hop's unfused kernel.
	}
	d := a.hopDRX[k] * sim.Duration(u.n())
	u.arm(drx, false)
	a.drxServer[k].SubmitKeyed(a.id, u.key(a.remAtHop), d, u.guard(func() {
		u.disarm()
		if s.hazardous && u.faulted(drx, nil) {
			return
		}
		u.restructured()
	}))
}

// fusedLeader submits the fused program's first segment and retains the
// DRX slot when it completes: the merged program stays loaded (resident
// context) while the intermediate accelerator stage runs, and the
// follower hop resumes its second segment without re-arbitrating.
func (u *unit) fusedLeader(f hopFusion) {
	s, a, k := u.s, u.a, u.k
	drx := a.drxServer[k].Name()
	part := f.part * sim.Duration(u.n())
	u.arm(drx, false)
	// The hold callback bypasses guard: a guarded drop (watchdog fired,
	// unit retired) would leak the retained slot and wedge the DRX, so
	// staleness must release it explicitly.
	e := u.epoch
	a.drxServer[k].SubmitKeyedHold(a.id, u.key(a.remAtHop), part, func(h *sim.Hold) {
		if u.dead || u.epoch != e {
			h.Release()
			return
		}
		u.disarm()
		// A fault in the fused program's first half drops residency; the
		// retry reloads and resubmits the program as a leader again.
		if s.hazardous && u.faulted(drx, h) {
			return
		}
		u.hold = h
		u.restructured()
	})
}

// fusedResume runs the fused program's second segment on the slot the
// leader hop retained. The DRX was held (occupied but idle) across the
// gap, so the slot served no one else from the leader's first segment
// to the end of this one.
func (u *unit) fusedResume(f hopFusion) {
	s, a, k := u.s, u.a, u.k
	drx := a.drxServer[k].Name()
	hold := u.hold
	u.hold = nil
	part := f.part * sim.Duration(u.n())
	u.arm(drx, false)
	hold.Resume(part, u.guard(func() {
		u.disarm()
		// The resident context is spent; a retry resubmits this hop's
		// unfused kernel standalone.
		if s.hazardous && u.faulted(drx, nil) {
			return
		}
		u.restructured()
	}))
}

// faulted rolls the DRX's transient-fault odds for a restructure that
// just completed and reports whether the walk stops here. A solo unit
// rolls once and, on a fault, drops any fused residency (hold) and
// retries in place. A batch rolls once per member in arrival order and
// peels each faulted member into a unit of its own (batch.go); it stops
// only when every member peeled, releasing the hold and the shell.
func (u *unit) faulted(drx string, hold *sim.Hold) bool {
	if !u.batched {
		if !u.s.inj.TransientFault(drx) {
			return false
		}
		if hold != nil {
			hold.Release()
		}
		u.retryRestructure()
		return true
	}
	u.peelTransients(drx)
	if len(u.members) > 0 {
		return false
	}
	if hold != nil {
		hold.Release()
	}
	u.release()
	return true
}

// restructured continues hop k once its DRX restructuring succeeded:
// the placement's out leg toward stage k+1.
func (u *unit) restructured() {
	switch u.s.cfg.Placement {
	case Integrated:
		u.hopHostRestructured()
	case Standalone:
		u.hopCardRestructured()
	case PCIeIntegrated:
		u.hopSwitchRestructured()
	case BumpInTheWire:
		u.hopBumpRestructured()
	default:
		u.fail(fmt.Errorf("dmxsys: restructure under %v", u.s.cfg.Placement))
	}
}

// retryRestructure handles a transient restructure fault: re-attempt
// after backoff while the budget lasts, then fall back to the CPU path.
func (u *unit) retryRestructure() {
	s := u.s
	if u.attempt < s.cfg.Retry.Attempts() {
		u.attempt++
		u.members[0].retries++
		s.obsInstant(u.a, obs.TypeRetry, 0, u.track, "", u.a.drxServer[u.k].Name(), int64(u.attempt))
		s.Eng.Schedule(s.inj.RetryBackoff(s.cfg.Retry, u.attempt), u.guard(u.restructureAttempt))
		return
	}
	u.degradeHop()
}

// degradeHop completes hop k via CPU-mediated restructuring after its
// DRX path proved unavailable: the driver re-fetches the producer
// accelerator's still-valid output buffer over the host bridge,
// restructures in software (restructure.Run semantics — bit-identical
// to the DRX result), and ships it to the consumer. This is the
// paper's Multi-Axl baseline path grafted onto one hop: every member
// completes slower instead of failing.
func (u *unit) degradeHop() {
	s, a, k := u.s, u.a, u.k
	for _, m := range u.members {
		if m.outcome == traffic.OutcomeClean {
			m.outcome = traffic.OutcomeDegraded
		}
	}
	u.releaseQueues()
	u.releaseHold()
	s.obsInstant(a, obs.TypeDegrade, 0, u.track, "", a.drxServer[k].Name(), u.hopIn())
	// Time burned on the failed DRX attempts counts as restructuring.
	u.lap(phaseRestructure)
	if s.cfg.Placement == Integrated {
		// The hop's payload is already in host memory (hopHostIn
		// brought it there); restructure in software and rejoin the
		// normal host-mediated continuation.
		u.cpuRestructure(u.guard(u.hopHostRestructured))
		return
	}
	u.dma(obs.TypeHostDMA, 0, a.accelDev[k], pcie.Root, u.hopIn(), s.driverDelay()+DMASetupLatency, u.degradeAtHost)
}

func (u *unit) degradeAtHost() {
	u.landed()
	u.cpuRestructure(u.guard(u.degradeRestructured))
}

func (u *unit) degradeRestructured() {
	u.lap(phaseRestructure)
	u.dma(obs.TypeHostDMA, 0, pcie.Root, u.a.accelDev[u.k+1], u.hopOut(), DMASetupLatency, u.hopDone)
}

// drive is the shared load driver under Run and RunLoad: app i's
// request j is admitted at i·StartStagger + offsets(i)[j], the engine
// runs to completion, and every retirement invokes onDone.
// deadline is app i's per-request latency budget (nil = none). The
// first flow error (or a deadlocked request train) is returned after
// the drain.
func (s *System) drive(offsets func(app int) []sim.Duration, deadline func(app int) sim.Duration, onDone func(app int, r *request)) error {
	remaining := 0
	for i, a := range s.apps {
		i, a := i, a
		start := sim.Duration(i) * s.cfg.StartStagger
		dl := sim.Duration(0)
		if deadline != nil {
			dl = deadline(i)
		}
		for _, off := range offsets(i) {
			remaining++
			s.Eng.Schedule(start+off, func() {
				s.admit(a, dl, func(r *request) {
					remaining--
					onDone(i, r)
				})
			})
		}
	}
	s.Eng.Run()
	if s.err != nil {
		return s.err
	}
	if remaining != 0 {
		return fmt.Errorf("dmxsys: %d requests never completed (deadlocked flow)", remaining)
	}
	return nil
}
