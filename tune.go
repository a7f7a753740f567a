package dmx

import (
	"fmt"
	"strings"

	"dmx/internal/tune"
)

// TuneSpec parameterizes an autotuning run: a base experiment plus the
// bounds of the search.
type TuneSpec struct {
	// Base is the experiment to tune. Its workload, traffic, fault
	// plan, and cluster shape are held fixed; its placement,
	// discipline, batch_window, batch_max, admit, retry, and fuse_hops
	// fields are the search axes (their Base values seed the start
	// point).
	Base Spec
	// Placements limits the search to these placement tokens (empty =
	// all six).
	Placements []string
	// MaxRounds caps the coordinate-descent rounds (0 = 4).
	MaxRounds int
}

// TuneCandidate is one evaluated configuration, expressed as the full
// replayable Spec it was simulated from.
type TuneCandidate struct {
	// Spec is the complete experiment document of this candidate.
	Spec Spec
	// Goodput is the objective: SLO-satisfying completions per second
	// of makespan (all completions when Base.SLO is empty).
	Goodput float64
	// P99 is the worst per-app 99th-percentile latency.
	P99 Duration
	// Outcome totals across apps.
	Completed, Missed, Rejected, Abandoned int
	// Round is the descent round that proposed the candidate (0 = the
	// capacity-model seed).
	Round int
	// OK is false for infeasible candidates; Err says why.
	OK  bool
	Err string
}

// TuneResult ranks everything the search evaluated.
type TuneResult struct {
	// Winner is the best configuration found, as a self-contained Spec:
	// SimulateCluster on Winner.Resolve() (or Winner.Simulate())
	// reproduces the winning score exactly.
	Winner Spec
	// Goodput and P99 are the winner's measured score.
	Goodput float64
	P99     Duration
	// Candidates holds every evaluated point, feasible first, best
	// first.
	Candidates []TuneCandidate
	// Evaluations counts full cluster simulations; Rounds counts
	// descent rounds.
	Evaluations, Rounds int
	// SeedPlacement is the placement token the analytic capacity model
	// seeded the search with, and SeedCapacity its summed per-app
	// capacity bound in req/s.
	SeedPlacement string
	SeedCapacity  float64
}

// String renders the result compactly: the winner line, the seed, and
// the top candidates. Deterministic at any sweep worker count.
func (r TuneResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tuned %d candidates in %d round(s), seed %s (capacity bound %.1f req/s)\n",
		r.Evaluations, r.Rounds, r.SeedPlacement, r.SeedCapacity)
	fmt.Fprintf(&b, "winner: %s  goodput %.1f req/s  p99 %v\n", specAxesLine(r.Winner), r.Goodput, r.P99)
	n := len(r.Candidates)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		c := r.Candidates[i]
		if !c.OK {
			fmt.Fprintf(&b, "  #%d %s  infeasible: %s\n", i+1, specAxesLine(c.Spec), c.Err)
			continue
		}
		fmt.Fprintf(&b, "  #%d %s  goodput %.1f req/s  p99 %v\n", i+1, specAxesLine(c.Spec), c.Goodput, c.P99)
	}
	return b.String()
}

// specAxesLine renders only the tunable axes of a spec.
func specAxesLine(s Spec) string {
	placement := s.Placement
	if placement == "" {
		placement = "bump"
	}
	discipline := s.Discipline
	if discipline == "" {
		discipline = "fifo"
	}
	line := fmt.Sprintf("%s/%s", placement, discipline)
	if s.BatchWindow != "" {
		line += fmt.Sprintf(" batch=%s", s.BatchWindow)
		if s.BatchMax > 0 {
			line += fmt.Sprintf("/%d", s.BatchMax)
		}
	}
	if s.Admit > 0 {
		line += fmt.Sprintf(" admit=%d", s.Admit)
	}
	if s.Retry > 0 {
		line += fmt.Sprintf(" retry=%d", s.Retry)
	}
	if len(s.FuseHops) > 0 {
		pairs := make([]string, len(s.FuseHops))
		for i, f := range s.FuseHops {
			pairs[i] = fmt.Sprintf("%d:%d", f.App, f.Hop)
		}
		line += " fuse=" + strings.Join(pairs, ",")
	}
	return line
}

// specWithAxes writes the search axes back into a copy of the base
// spec. It is the single translation between the tuner's coordinates
// and the experiment document, used both to materialize candidates for
// evaluation and to emit the winner — so the winner Spec replays the
// exact configuration the tuner scored, by construction.
func specWithAxes(base Spec, a tune.Axes) Spec {
	s := base
	s.Placement = PlacementToken(a.Placement)
	s.Discipline = a.Sched.String()
	s.BatchWindow = ""
	if a.BatchWindow > 0 {
		s.BatchWindow = FormatDuration(a.BatchWindow)
	}
	s.BatchMax = a.BatchMax
	s.Admit = a.Admit
	s.Retry = a.Retry
	s.FuseHops = nil
	if len(a.Fuse) > 0 {
		s.FuseHops = append([]FusePair(nil), a.Fuse...)
	}
	return s
}

// Tune searches placements, scheduling disciplines, batching windows,
// admission caps, retry budgets, and cross-hop kernel fusion for the
// configuration of ts.Base that maximizes throughput under the SLO.
// The search seeds from the analytic capacity model and refines by
// greedy coordinate descent; every candidate is scored by a full
// deterministic cluster simulation on the sweep worker pool. The result
// is byte-identical at any worker count, and TuneResult.Winner is a
// complete Spec whose replay reproduces the winning numbers exactly.
func Tune(ts TuneSpec) (TuneResult, error) {
	base := ts.Base
	if base.Arrival == "" {
		return TuneResult{}, fmt.Errorf("dmx: tune base: %w", errNoArrival)
	}
	// The base must itself resolve — it fixes the workload, traffic,
	// and fleet shape every candidate shares, and its host config is the
	// search's start point.
	fc, tspec, pipes, err := base.Resolve()
	if err != nil {
		return TuneResult{}, fmt.Errorf("dmx: tune base: %w", err)
	}
	start := tune.Axes{
		Placement:   fc.Base.Placement,
		Sched:       fc.Base.Sched,
		BatchWindow: fc.Base.BatchWindow,
		BatchMax:    fc.Base.BatchMax,
		Admit:       fc.Base.AdmitLimit,
		Retry:       base.Retry,
		Fuse:        fc.Base.FuseHops,
	}
	var placements []Placement
	for _, tok := range ts.Placements {
		p, ok := specPlacements[strings.ToLower(tok)]
		if !ok {
			return TuneResult{}, fmt.Errorf("dmx: tune placement %q (want one of allcpu, multiaxl, integrated, standalone, pcie, bump)", tok)
		}
		placements = append(placements, p)
	}
	in := tune.Input{
		Materialize: func(a tune.Axes) (FleetConfig, error) {
			fc, _, _, err := specWithAxes(base, a).Resolve()
			return fc, err
		},
		Traffic:    tspec,
		Pipes:      pipes,
		Start:      start,
		Placements: placements,
		MaxRounds:  ts.MaxRounds,
	}
	res, err := tune.Run(in)
	if err != nil {
		return TuneResult{}, err
	}
	out := TuneResult{
		Winner:        specWithAxes(base, res.Winner),
		Goodput:       res.Score.Goodput,
		P99:           res.Score.P99,
		Evaluations:   res.Evaluations,
		Rounds:        res.Rounds,
		SeedPlacement: PlacementToken(res.SeedPlacement),
		SeedCapacity:  res.SeedCapacity,
	}
	out.Candidates = make([]TuneCandidate, len(res.Candidates))
	for i, c := range res.Candidates {
		out.Candidates[i] = TuneCandidate{
			Spec:      specWithAxes(base, c.Axes),
			Goodput:   c.Score.Goodput,
			P99:       c.Score.P99,
			Completed: c.Score.Completed,
			Missed:    c.Score.Missed,
			Rejected:  c.Score.Rejected,
			Abandoned: c.Score.Abandoned,
			Round:     c.Round,
			OK:        c.OK,
			Err:       c.Err,
		}
	}
	return out, nil
}
