package dmxsys

import (
	"fmt"
	"sort"
)

// Leaks lists what a drained System still holds that a clean run must
// have returned: bump-in-the-wire queue bytes, busy or backlogged
// stations (an outstanding sim.Hold keeps its slot busy), in-flight CPU
// channel work, and unit shells missing from the pool. Empty means
// every reservation was released.
func (s *System) Leaks() []string {
	var out []string
	for owner, qs := range s.queueSets {
		for peer, q := range qs.rx {
			if q.Used() != 0 {
				out = append(out, fmt.Sprintf("%s rx[%s] holds %d bytes", owner, peer, q.Used()))
			}
		}
		for peer, q := range qs.tx {
			if q.Used() != 0 {
				out = append(out, fmt.Sprintf("%s tx[%s] holds %d bytes", owner, peer, q.Used()))
			}
		}
	}
	for name, srv := range s.servers {
		if srv.Busy() != 0 || srv.QueueLen() != 0 {
			out = append(out, fmt.Sprintf("station %s busy %d queued %d", name, srv.Busy(), srv.QueueLen()))
		}
	}
	for _, c := range []interface {
		Name() string
		InFlight() int
	}{s.cpuCompute, s.cpuMem} {
		if c.InFlight() != 0 {
			out = append(out, fmt.Sprintf("channel %s has %d jobs in flight", c.Name(), c.InFlight()))
		}
	}
	if len(s.unitPool) != s.units {
		out = append(out, fmt.Sprintf("%d of %d unit shells back in the pool", len(s.unitPool), s.units))
	}
	sort.Strings(out)
	return out
}
