package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// definition is the part of BENCHMARK.json compare reads.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare prints, per workload and metric, each side's median and
// quartiles, the share of run pairs the change won, and a verdict:
//
//   - better: the change won at least 9 of 10 pairs (ties count for
//     neither) and the medians differ by more than the parent's
//     interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound;
//   - unresolved: either side's interquartile range, as a share of its
//     median, exceeds the bound, unless every change run beat every
//     parent run;
//   - same: none of the above.
//
// Per-layer metrics have no bound, so they are never unresolved or worse.
// Runs pair up in file order.
func runCompare(w io.Writer, benchPath, parentPath, changePath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	var names []string
	for wl := range parent {
		if change[wl] != nil {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tparent median [q1, q3]\tchange median [q1, q3]\twon\tverdict")
	for _, wl := range names {
		for _, m := range append(append([]metricDef(nil), def.EndToEnd...), def.PerLayer...) {
			p, c := values(parent[wl], m.Name), values(change[wl], m.Name)
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := judge(m, p, c)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\n",
				wl, m.Name, v.parent[1], v.parent[0], v.parent[2], v.change[1], v.change[0], v.change[2], v.won, v.pairs, v.verdict)
		}
	}
	return tw.Flush()
}

type judgement struct {
	parent, change [3]float64 // q1, median, q3
	won, pairs     int
	verdict        string
}

// judge applies the comparison rule to one metric's runs.
func judge(m metricDef, p, c []float64) judgement {
	j := judgement{parent: quartiles(p), change: quartiles(c)}
	// gain is how much better b is than a, in the metric's direction.
	gain := func(a, b float64) float64 {
		if m.Better == "higher" {
			return b - a
		}
		return a - b
	}
	j.pairs = min(len(p), len(c))
	for i := 0; i < j.pairs; i++ {
		if gain(p[i], c[i]) > 0 {
			j.won++
		}
	}
	pm, cm := j.parent[1], j.change[1]
	spread := func(q [3]float64) float64 { return (q[2] - q[0]) / math.Abs(q[1]) }
	// Every change run beats every parent run.
	allBetter := gain(extreme(p, m.Better, true), extreme(c, m.Better, false)) > 0
	switch {
	case m.Bound > 0 && (spread(j.parent) > m.Bound || spread(j.change) > m.Bound) && !allBetter:
		j.verdict = "unresolved"
	case 10*j.won >= 9*j.pairs && gain(pm, cm) > j.parent[2]-j.parent[0]:
		j.verdict = "better"
	case m.Bound > 0 && -gain(pm, cm) > m.Bound*math.Abs(pm):
		j.verdict = "worse"
	default:
		j.verdict = "same"
	}
	return j
}

// extreme is the best (best=true) or worst run of xs in the metric's
// direction.
func extreme(xs []float64, better string, best bool) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if (better == "higher") == best {
		return s[len(s)-1]
	}
	return s[0]
}

// quartiles returns q1, median and q3 by the exclusive method of
// Python's statistics.quantiles(xs, n=4).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// readRecords reads an -append file into results per workload, in file
// order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out[rec.Workload] = append(out[rec.Workload], rec.Result)
	}
	return out, sc.Err()
}
