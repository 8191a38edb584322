package topo

import (
	"fmt"
	"slices"
)

// tieBreak picks one port out of the equal-cost candidate ports at
// device dev for destination dest. Candidates are sorted ascending and
// never empty. A rule must be a pure function.
type tieBreak func(dev, dest int, candidates []int) int

// spread is the rule of Builder-made topologies: it spreads
// destinations across candidates by index, candidates[dest mod len].
func spread(_, dest int, candidates []int) int {
	return candidates[dest%len(candidates)]
}

// OutPort returns the output port at device dev towards endpoint dest
// (the "table-based routing logic" of Table I), or -1 when dev is that
// endpoint.
func (t *Topology) OutPort(dev, dest int) int { return int(t.next[dev*len(t.endpoints)+dest]) }

// route fills the routing table: shortest paths, with tb choosing
// among equal-cost next hops. A rule that picks deterministically per
// destination makes all traffic addressed to one endpoint converge on a
// single per-destination tree, the DET property the paper's congestion
// behaviour depends on.
func (t *Topology) route(tb tieBreak) error {
	nd := len(t.Devices)
	ne := t.NumEndpoints()
	t.next = make([]int16, nd*ne)
	for i := range t.next {
		t.next[i] = -1
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
			if t.Devices[d].Kind == Endpoint && d != destDev {
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
				return fmt.Errorf("topo %q: device %d cannot reach endpoint %d", t.Name, dev, dest)
			}
			cands = cands[:0]
			for pi, c := range t.Devices[dev].Ports {
				if c.Peer < 0 || dist[c.Peer] != dist[dev]-1 {
					continue
				}
				// Never route into a non-destination endpoint.
				if t.Devices[c.Peer].Kind == Endpoint && c.Peer != destDev {
					continue
				}
				cands = append(cands, pi)
			}
			if len(cands) == 0 {
				return fmt.Errorf("topo %q: no next hop at device %d for endpoint %d", t.Name, dev, dest)
			}
			p := tb(dev, dest, cands)
			if !slices.Contains(cands, p) {
				return fmt.Errorf("topo %q: tie-break returned non-candidate port %d at device %d for endpoint %d", t.Name, p, dev, dest)
			}
			t.next[dev*ne+dest] = int16(p)
		}
	}
	return nil
}

// Path follows the routes from endpoint src to endpoint dest and
// returns the device ids visited (inclusive). It errors on loops or
// dead ends; used by tests and diagnostics.
func (t *Topology) Path(src, dest int) ([]int, error) {
	dev := t.EndpointDevice(src)
	destDev := t.EndpointDevice(dest)
	path := []int{dev}
	for dev != destDev {
		if len(path) > len(t.Devices) {
			return nil, fmt.Errorf("topo: loop from %d to %d: %v", src, dest, path)
		}
		p := t.OutPort(dev, dest)
		if p < 0 {
			return nil, fmt.Errorf("topo: dead end at device %d towards %d", dev, dest)
		}
		dev = t.Devices[dev].Ports[p].Peer
		path = append(path, dev)
	}
	return path, nil
}
