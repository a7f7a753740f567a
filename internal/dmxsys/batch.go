package dmxsys

import (
	"dmx/internal/sim"
)

// Continuous batching. With Config.BatchWindow set, arrivals of one
// application accumulate in a deterministic window (opened by the first
// pending request, flushed BatchWindow later or when BatchMax fills)
// and walk the pipeline as a single unit of n members (flow.go): one
// driver round trip, one DMA descriptor, and one kernel/DRX dispatch per
// station, with payloads scaled by n. Requests of one app always share a
// pipeline and placement, so app identity is the compatibility key.
//
// What amortizes and what does not follows the hardware model:
// accelerator kernels pay their launch overhead once per dispatch
// (accel.Spec.Latency is concave in bytes), and each leg pays one
// interrupt/poll plus one DMA-descriptor setup instead of one per
// request. DRX restructuring and CPU fallback work stream the payload,
// so a batch costs n× their per-request service — coalescing wins
// nothing there, and link serialization is byte-proportional either
// way. Occupancy accounting charges the unit totals, so the capacity
// bound sees exactly the per-request amortization.
//
// Completions split back out per member: each member's latency runs
// from its own arrival (so early members pay the residual window as
// queueing delay), and transient faults stay per-request — a member
// whose restructure rolls a transient fault peels out of the batch into
// a unit of its own and retries on the solo recovery ladder, while its
// batchmates continue unharmed. Device-level incidents (a DRX outage
// window, a dead link after retries) degrade or abandon the unit as a
// whole, because every member's payload sits on the same hardware.
//
// This file holds only what is batch-specific: the accumulation window,
// the unit shell pool (shared with solo requests, which are units of
// one), and peeling. Unit shells recycle through System.unitPool, so
// steady-state serving allocates only the requests themselves.

// enqueueBatch parks one arrival in app a's accumulation window,
// opening the window when it is the first pending request and flushing
// early when the size cap fills.
func (s *System) enqueueBatch(a *appInstance, deadline sim.Duration, done func(*request)) {
	r := s.newRequest(a, deadline, done)
	a.pending = append(a.pending, r)
	if len(a.pending) == 1 {
		a.flushRef = s.Eng.Schedule(s.cfg.BatchWindow, a.flushFn)
		a.flushArmed = true
	}
	if max := s.batchCap(a); max > 0 && len(a.pending) >= max {
		if a.flushArmed {
			a.flushRef.Cancel()
			a.flushArmed = false
		}
		s.flush(a)
	}
}

// batchCap is the effective batch-size cap for app a: the configured
// BatchMax tightened by the placement's queue-capacity ceiling
// (appInstance.maxBatch, nonzero only under bump-in-the-wire). Zero
// means uncapped.
func (s *System) batchCap(a *appInstance) int {
	max := s.cfg.BatchMax
	if a.maxBatch > 0 && (max == 0 || a.maxBatch < max) {
		max = a.maxBatch
	}
	return max
}

// flush closes app a's window: the pending requests coalesce into one
// unit (or several consecutive ones when the size cap splits them) and
// dispatch immediately. A lone pending request gains nothing from
// coalescing and dispatches as a unit of one, exactly as if unbatched.
func (s *System) flush(a *appInstance) {
	pending := a.pending
	max := s.batchCap(a)
	for len(pending) > 0 {
		n := len(pending)
		if max > 0 && n > max {
			n = max
		}
		s.dispatch(a, pending[:n])
		pending = pending[n:]
	}
	a.pending = a.pending[:0]
}

// newUnit takes a recycled unit shell from the pool (or allocates the
// first time). A pooled shell comes back dead (so stale completions
// from its previous life drop); revive it here, keeping the epoch —
// which release bumped past every guard captured before — monotone
// across lives.
func (s *System) newUnit(a *appInstance) *unit {
	var u *unit
	if n := len(s.unitPool); n > 0 {
		u = s.unitPool[n-1]
		s.unitPool = s.unitPool[:n-1]
	} else {
		u = &unit{}
		s.units++
	}
	u.s, u.a = s, a
	u.dead = false
	return u
}

// release retires the unit shell back to the pool: dead until newUnit
// revives it, and the epoch advanced past every closure captured in
// this life, so a stale guarded callback (say an abandoned unit's
// kernel job still queued in a sim.Server) can never match the shell's
// next incarnation.
func (u *unit) release() {
	s := u.s
	members := u.members[:0]
	e := u.epoch + 1
	*u = unit{members: members, epoch: e, dead: true}
	s.unitPool = append(s.unitPool, u)
}

// peelTransients rolls the DRX's transient-fault odds once per member,
// in arrival order, and peels the failures out of the batch.
func (u *unit) peelTransients(drx string) {
	ms := u.members
	kept := ms[:0]
	for _, m := range ms {
		if u.s.inj.TransientFault(drx) {
			u.peel(m)
			continue
		}
		kept = append(kept, m)
	}
	u.members = kept
	for i := len(kept); i < len(ms); i++ {
		ms[i] = nil
	}
}

// peel detaches one member whose restructure rolled a transient fault
// into a fresh unit of one: it resumes on the solo retry ladder at the
// current hop (the batch dispatch counts as its first attempt), taking
// its per-request RX-queue share with it under bump-in-the-wire, and
// its batchmates are untouched.
func (u *unit) peel(m *request) {
	s, a, k := u.s, u.a, u.k
	p := s.newUnit(a)
	p.members = append(p.members, m)
	p.track = m.track
	p.k = k
	p.mark = s.Eng.Now()
	p.attempt = 1
	if u.rx != nil {
		h := a.pipe.Hops[k]
		p.rx, p.tx = u.rx, u.tx
		p.rxHeld = h.InBytes
		u.rxHeld -= h.InBytes
	}
	p.retryRestructure()
}
