package dmxsys

import (
	"fmt"

	"dmx/internal/traffic"
)

// RunSpec unifies the two execution front-ends behind one entry point:
// a single-request latency run or a traffic-generated load (a
// closed-loop stream is a load with traffic.ClosedLoop arrivals). The
// zero value is a single-request run, so the simplest call sites need
// no spec at all.
type RunSpec struct {
	// Mode selects the front-end.
	Mode RunMode
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
	// ModeLoad drives the system with the Traffic spec's arrival
	// process and reports the serving summary (dmx.Run with LoadSpec).
	ModeLoad
)

var modeNames = [...]string{
	ModeSingle: "single",
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
	case ModeLoad:
		return sp.Traffic.Validate()
	}
	return fmt.Errorf("dmxsys: unknown run mode %d", int(sp.Mode))
}

// SingleSpec is a one-request-per-app latency run.
func SingleSpec() RunSpec { return RunSpec{Mode: ModeSingle} }

// LoadSpec is a traffic-driven serving run.
func LoadSpec(spec traffic.Spec) RunSpec { return RunSpec{Mode: ModeLoad, Traffic: spec} }

// Report is the union result of Execute: exactly one of the two fields
// is non-nil, matching the spec's mode.
type Report struct {
	// Single is the latency/energy decomposition (ModeSingle).
	Single *RunReport
	// Load is the serving summary with failure accounting (ModeLoad).
	Load *traffic.LoadReport
}

// String renders whichever report the run produced.
func (r Report) String() string {
	switch {
	case r.Single != nil:
		return r.Single.String()
	case r.Load != nil:
		return r.Load.String()
	}
	return "report(empty)"
}

// Execute runs the system under the spec. Like Run and RunLoad — which
// it dispatches to — it consumes the engine: build a fresh System per
// call.
func (s *System) Execute(spec RunSpec) (Report, error) {
	if err := spec.Validate(); err != nil {
		return Report{}, err
	}
	if spec.Mode == ModeLoad {
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
