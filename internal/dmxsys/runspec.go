package dmxsys

import (
	"fmt"

	"dmx/internal/traffic"
)

// RunSpec unifies the three execution front-ends behind one entry
// point: a single-request latency run, a closed-loop stream, or a
// traffic-generated load. The zero value is a single-request run, so
// the simplest call sites need no spec at all.
type RunSpec struct {
	// Mode selects the front-end.
	Mode RunMode
	// Requests is the closed-loop train length under ModeStream
	// (at least 2, to measure a steady-state rate).
	Requests int
	// Traffic parameterizes ModeLoad (arrival process, rate, request
	// count, seed, deadline).
	Traffic traffic.Spec
}

// RunMode selects which execution front-end Execute uses.
type RunMode uint8

// Execution modes.
const (
	// ModeSingle runs one request per application and reports the
	// latency/energy decomposition (the historical Simulate).
	ModeSingle RunMode = iota
	// ModeStream issues a closed-loop burst of Requests per application
	// and reports steady-state throughput (dmx.Run with StreamSpec).
	ModeStream
	// ModeLoad drives the system with the Traffic spec's arrival
	// process and reports the serving summary (dmx.Run with LoadSpec).
	ModeLoad
)

var modeNames = [...]string{
	ModeSingle: "single",
	ModeStream: "stream",
	ModeLoad:   "load",
}

func (m RunMode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("RunMode(%d)", int(m))
}

// Validate sanity-checks the spec.
func (sp RunSpec) Validate() error {
	switch sp.Mode {
	case ModeSingle:
		return nil
	case ModeStream:
		if sp.Requests < 2 {
			return fmt.Errorf("dmxsys: stream runs need at least 2 requests to measure a rate (got %d)", sp.Requests)
		}
		return nil
	case ModeLoad:
		return sp.Traffic.Validate()
	}
	return fmt.Errorf("dmxsys: unknown run mode %d", int(sp.Mode))
}

// SingleSpec is a one-request-per-app latency run.
func SingleSpec() RunSpec { return RunSpec{Mode: ModeSingle} }

// StreamSpec is a closed-loop run of n requests per app.
func StreamSpec(n int) RunSpec { return RunSpec{Mode: ModeStream, Requests: n} }

// LoadSpec is a traffic-driven serving run.
func LoadSpec(spec traffic.Spec) RunSpec { return RunSpec{Mode: ModeLoad, Traffic: spec} }

// Report is the union result of Execute: exactly one of the three
// fields is non-nil, matching the spec's mode.
type Report struct {
	// Single is the latency/energy decomposition (ModeSingle).
	Single *RunReport
	// Stream is the steady-state throughput summary (ModeStream).
	Stream *StreamReport
	// Load is the serving summary with failure accounting (ModeLoad).
	Load *traffic.LoadReport
}

// String renders whichever report the run produced.
func (r Report) String() string {
	switch {
	case r.Single != nil:
		return r.Single.String()
	case r.Stream != nil:
		return fmt.Sprintf("stream(%v): %d apps, makespan %v",
			r.Stream.Placement, len(r.Stream.PerApp), r.Stream.Makespan)
	case r.Load != nil:
		return r.Load.String()
	}
	return "report(empty)"
}

// Execute runs the system under the spec. Like Run, RunStream, and
// RunLoad — which it dispatches to — it consumes the engine: build a
// fresh System per call.
func (s *System) Execute(spec RunSpec) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	switch spec.Mode {
	case ModeStream:
		rep, err := s.RunStream(spec.Requests)
		if err != nil {
			return Report{}, err
		}
		return Report{Stream: &rep}, nil
	case ModeLoad:
		rep, err := s.RunLoad(spec.Traffic)
		if err != nil {
			return Report{}, err
		}
		return Report{Load: &rep}, nil
	}
	rep, err := s.Run()
	if err != nil {
		return Report{}, err
	}
	return Report{Single: &rep}, nil
}
