// Package route computes deterministic, destination-based routing
// tables for a topology — the "table-based routing logic" of Table I.
// Every device gets a table mapping destination endpoint id to output
// port. Routes follow shortest paths; where several shortest next hops
// exist, a TieBreak rule chooses one *deterministically per
// destination*, which makes all traffic addressed to one endpoint
// converge on a single per-destination tree (the DET property the
// paper's congestion behaviour depends on).
package route

import (
	"fmt"

	"repro/internal/topo"
)

// TieBreak picks one port out of the equal-cost candidate ports at
// device dev for destination dest. Candidates are sorted ascending and
// never empty. Implementations must be pure functions.
type TieBreak func(dev, dest int, candidates []int) int

// DefaultTieBreak spreads destinations across candidates by index:
// port = candidates[dest mod len]. Adequate for ad-hoc topologies.
func DefaultTieBreak(_, dest int, candidates []int) int {
	return candidates[dest%len(candidates)]
}

// Tables holds the computed routing tables.
type Tables struct {
	port [][]int16 // [device][dest] -> output port (-1 at the destination itself)
}

// OutPort returns the output port at device dev for destination dest,
// or -1 if dev is the destination endpoint.
func (r *Tables) OutPort(dev, dest int) int { return int(r.port[dev][dest]) }

// Compute builds routing tables for every device and destination.
// tb may be nil, selecting DefaultTieBreak. For fat trees pass
// (*topo.FatTree).DETTieBreak to get DET routing.
func Compute(t *topo.Topology, tb TieBreak) (*Tables, error) {
	if tb == nil {
		tb = DefaultTieBreak
	}
	nd := len(t.Devices)
	ne := t.NumEndpoints()
	r := &Tables{port: make([][]int16, nd)}
	for i := range r.port {
		r.port[i] = make([]int16, ne)
		for j := range r.port[i] {
			r.port[i][j] = -1
		}
	}

	dist := make([]int, nd)
	queue := make([]int, 0, nd)
	var cands []int
	for dest := 0; dest < ne; dest++ {
		destDev := t.EndpointDevice(dest)
		// Reverse BFS from the destination. Endpoints other than the
		// destination are leaves: they are assigned a distance but are
		// not expanded, so no route transits an endpoint.
		for i := range dist {
			dist[i] = -1
		}
		dist[destDev] = 0
		// Read through a head index: a device is queued at most once, so
		// the nd-long queue never regrows and is reused across destinations.
		queue = append(queue[:0], destDev)
		for head := 0; head < len(queue); head++ {
			d := queue[head]
			if t.Devices[d].Kind == topo.Endpoint && d != destDev {
				continue
			}
			for _, c := range t.Devices[d].Ports {
				if c.Peer >= 0 && dist[c.Peer] < 0 {
					dist[c.Peer] = dist[d] + 1
					queue = append(queue, c.Peer)
				}
			}
		}
		// Pick a next hop everywhere.
		for dev := 0; dev < nd; dev++ {
			if dev == destDev {
				continue
			}
			if dist[dev] < 0 {
				return nil, fmt.Errorf("route: device %d cannot reach endpoint %d", dev, dest)
			}
			cands = cands[:0]
			for pi, c := range t.Devices[dev].Ports {
				if c.Peer < 0 || dist[c.Peer] != dist[dev]-1 {
					continue
				}
				// Never route into a non-destination endpoint.
				if t.Devices[c.Peer].Kind == topo.Endpoint && c.Peer != destDev {
					continue
				}
				cands = append(cands, pi)
			}
			if len(cands) == 0 {
				return nil, fmt.Errorf("route: no next hop at device %d for endpoint %d", dev, dest)
			}
			p := tb(dev, dest, cands)
			if !contains(cands, p) {
				return nil, fmt.Errorf("route: tie-break returned non-candidate port %d at device %d for dest %d", p, dev, dest)
			}
			r.port[dev][dest] = int16(p)
		}
	}
	return r, nil
}

// Path follows the tables from endpoint src to endpoint dest and
// returns the device ids visited (inclusive). It errors on loops or
// dead ends; used by tests and diagnostics.
func (r *Tables) Path(t *topo.Topology, src, dest int) ([]int, error) {
	dev := t.EndpointDevice(src)
	destDev := t.EndpointDevice(dest)
	path := []int{dev}
	for dev != destDev {
		if len(path) > len(t.Devices) {
			return nil, fmt.Errorf("route: loop from %d to %d: %v", src, dest, path)
		}
		p := r.OutPort(dev, dest)
		if p < 0 {
			return nil, fmt.Errorf("route: dead end at device %d towards %d", dev, dest)
		}
		c := t.Devices[dev].Ports[p]
		if c.Peer < 0 {
			return nil, fmt.Errorf("route: table at device %d points at unconnected port %d", dev, p)
		}
		dev = c.Peer
		path = append(path, dev)
	}
	return path, nil
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
