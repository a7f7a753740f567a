package dmxsys

import (
	"dmx/internal/sim"
	"dmx/internal/traffic"
)

// Load-generated execution: RunLoad drives the system with an explicit
// arrival process (internal/traffic). A closed-loop spec releases every
// request at once and the pipeline paces completions — the streamed
// steady-state throughput of Sec. VII-A. Open-loop and Poisson arrivals
// admit requests on their own clock regardless of completions, so
// offered load above the pipeline's capacity builds queueing delay — the
// latency-vs-offered-load curves of the serving experiments.

// RunLoad issues spec.Requests requests per application under the
// spec's arrival process and simulates to completion. The system must
// be freshly built (Run and RunLoad consume the engine).
func (s *System) RunLoad(spec traffic.Spec) (traffic.LoadReport, error) {
	if err := spec.Validate(); err != nil {
		return traffic.LoadReport{}, err
	}
	rep := traffic.LoadReport{Arrival: spec.Arrival, Seed: spec.Seed}
	rep.PerApp = make([]traffic.AppLoad, len(s.apps))
	arrivals := make([][]sim.Duration, len(s.apps))
	for i, a := range s.apps {
		al := &rep.PerApp[i]
		al.App = a.pipe.Name
		al.Requests = spec.Requests
		if spec.Arrival != traffic.ClosedLoop {
			al.Offered = spec.Rate
		}
		arrivals[i] = spec.Arrivals(i)
	}
	err := s.drive(func(app int) []sim.Duration { return arrivals[app] }, spec.DeadlineFor,
		func(app int, r *request) {
			rep.PerApp[app].Retire(r.outcome, r.retries, r.timeouts, r.start, s.Eng.Now(), r.deadline)
		})
	if err != nil {
		return traffic.LoadReport{}, err
	}
	rep.Makespan = sim.Duration(s.Eng.Now())
	for i := range rep.PerApp {
		rep.PerApp[i].Batches, rep.PerApp[i].BatchedRequests = s.BatchStats(i)
	}
	rep.Finalize()
	return rep, nil
}

// Retired summarizes one request's retirement for an external driver —
// exactly the fields RunLoad reads off a retiring *request. The caller
// owns the clock (the shared engine) and computes latency itself.
type Retired struct {
	Outcome  traffic.Outcome
	Retries  int
	Timeouts int
}

// Admit injects one request of app into the serving machine at the
// current engine time and calls done when it retires. Admission
// control, batching, scheduling, and fault recovery behave exactly as
// under RunLoad; this is the cluster front door, and with an empty host
// prefix a fleet of one driving Admit per arrival reproduces RunLoad's
// engine timeline event for event.
func (s *System) Admit(app int, deadline sim.Duration, done func(Retired)) {
	s.admit(s.apps[app], deadline, func(r *request) {
		done(Retired{Outcome: r.outcome, Retries: r.retries, Timeouts: r.timeouts})
	})
}

// BatchStats reports how many coalesced dispatch groups the app's
// requests rode and how many requests they carried.
func (s *System) BatchStats(app int) (batches, requests int) {
	a := s.apps[app]
	return a.nbatches, a.batchedReqs
}

// Apps reports how many applications the system hosts.
func (s *System) Apps() int { return len(s.apps) }

// Err surfaces the first flow error after the engine drains (nil on a
// clean run). External drivers sharing the engine check it where
// RunLoad would have.
func (s *System) Err() error { return s.err }
