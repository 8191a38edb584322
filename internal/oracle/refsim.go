// Package oracle is the simulator's standing correctness harness, and
// its tests are the harness's only front door: a deliberately simple
// reference simulator the optimized engine is differentially tested
// against, a metamorphic property suite over fuzzed configurations, and
// the paper's claims as one table of scored inequalities (Claims),
// whose figure runs are also pinned by exact digests. Every refactor or
// performance change is judged by `go test ./internal/oracle` (-short
// keeps the cheap gates and an 8-config sweep; it checks no claim).
//
// The reference simulator (RefSim) shares only the pkt and topo types
// with the real engine. It is store-and-forward with a single
// unbounded FIFO per directed link, DET routing written from its
// definition, and no credits, no iSLIP, no free-lists, no active lists,
// no congestion management — a few hundred lines whose behaviour can
// be checked by eye. As in the engine, a link lands a packet's tail
// after serialization plus propagation, and a switch forwards it one
// crossbar transfer, ceil(size/xbar) cycles, later, each input port
// carrying one transfer at a time. On non-saturating traffic both
// simulators are lossless and source-limited, so per-flow delivered
// counts and bytes agree exactly, and so does every latency of a flow
// whose path shares no directed link with a concurrent flow. A shared
// flow's mean agrees within one MTU serialization on the slowest link:
// the engine's input adapter round-robins per destination and iSLIP
// arbitrates a shared output, both unlike the reference's FIFO.
package oracle

import (
	"fmt"
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/topo"
)

// RefFlow is a constant-bit-rate flow in the reference model. It
// mirrors traffic.Flow (fixed destinations only: the reference model
// is deliberately RNG-free).
type RefFlow struct {
	ID  int
	Src int // source endpoint id
	Dst int // destination endpoint id (fixed)
	// Start and End bound the activation window [Start, End).
	Start, End sim.Cycle
	// Rate is the offered load as a fraction of the source's injection
	// link bandwidth.
	Rate float64
	// Size is the packet size in bytes (default pkt.MTU if zero).
	Size int
}

// RefFlowStats is one flow's outcome in the reference run.
type RefFlowStats struct {
	OfferedPkts    int
	OfferedBytes   int
	DeliveredPkts  int
	DeliveredBytes int
	// Latencies holds every delivered packet's emission-to-delivery
	// latency in delivery order.
	Latencies []sim.Cycle
	// MinPossible is the analytic per-packet latency floor on the
	// flow's path: serialization once at the slowest link plus the sum
	// of propagation delays. No simulator, cut-through or otherwise,
	// can beat it.
	MinPossible sim.Cycle
}

// MeanLatency returns the mean delivered latency in cycles (0 when
// nothing was delivered).
func (s *RefFlowStats) MeanLatency() float64 {
	if len(s.Latencies) == 0 {
		return 0
	}
	sum := 0.0
	for _, l := range s.Latencies {
		sum += float64(l)
	}
	return sum / float64(len(s.Latencies))
}

// RefResult is the outcome of a reference run.
type RefResult struct {
	Flows map[int]*RefFlowStats
	// TotalPkts / TotalBytes aggregate deliveries over all flows.
	TotalPkts  int
	TotalBytes int
	// Drained reports whether every emitted packet was delivered
	// before the run's cycle horizon. With unbounded buffers and
	// finite activation windows this is false only when the horizon
	// was too short.
	Drained bool
	// LastDelivery is the cycle of the final delivery.
	LastDelivery sim.Cycle
}

// refLink is one direction of a physical link: an unbounded FIFO in
// front of a serializing server. xbarFree is when the crossbar of the
// input port it lands on finishes its last transfer.
type refLink struct {
	toDev    int
	toPort   int
	bpc      int
	delay    sim.Cycle
	fifo     []*pkt.Packet
	busyTill sim.Cycle
	xbarFree sim.Cycle
}

// refEvent is a scheduled callback of the reference engine's private
// event heap (the reference simulator must not share the real engine,
// or a heap bug would cancel out of the differential).
type refEvent struct {
	at  sim.Cycle
	seq uint64
	fn  func()
}

// RefSim is the reference simulator instance. Build with NewRefSim,
// run with Run.
type RefSim struct {
	t     *topo.Topology
	flows []RefFlow

	// links[2*li] is LinkSpec li's A->B direction, links[2*li+1] B->A.
	links []refLink
	// outLink[dev][port] indexes links.
	outLink [][]int
	xbar    []int // xbar[dev] is a switch's crossbar rate: its fastest link
	// nextPort[dev][e] is the DET next-hop port from device dev toward
	// endpoint e (-1 when dev is the endpoint itself).
	nextPort [][]int

	events []refEvent
	seq    uint64
	now    sim.Cycle

	res *RefResult
}

// ser is the store-and-forward serialization time of size bytes on a
// bpc bytes-per-cycle link.
func ser(size, bpc int) sim.Cycle {
	return sim.Cycle((size + bpc - 1) / bpc)
}

// NewRefSim builds a reference simulator for the topology and flows.
func NewRefSim(t *topo.Topology, flows []RefFlow) (*RefSim, error) {
	s := &RefSim{t: t, res: &RefResult{Flows: map[int]*RefFlowStats{}}}
	ne := t.NumEndpoints()
	for _, f := range flows {
		if f.Size == 0 {
			f.Size = pkt.MTU
		}
		switch {
		case f.Src < 0 || f.Src >= ne || f.Dst < 0 || f.Dst >= ne:
			return nil, fmt.Errorf("oracle: flow %d endpoints outside [0,%d)", f.ID, ne)
		case f.Src == f.Dst:
			return nil, fmt.Errorf("oracle: flow %d sends to itself", f.ID)
		case f.Rate <= 0 || f.Rate > 1:
			return nil, fmt.Errorf("oracle: flow %d rate %v outside (0,1]", f.ID, f.Rate)
		case f.End <= f.Start:
			return nil, fmt.Errorf("oracle: flow %d empty window", f.ID)
		case f.Size <= 0 || f.Size > pkt.MTU:
			return nil, fmt.Errorf("oracle: flow %d size %d outside (0,MTU]", f.ID, f.Size)
		}
		if _, dup := s.res.Flows[f.ID]; dup {
			return nil, fmt.Errorf("oracle: duplicate flow id %d", f.ID)
		}
		s.flows = append(s.flows, f)
		s.res.Flows[f.ID] = &RefFlowStats{}
	}

	// Directed links and the per-device port -> link index.
	s.outLink = make([][]int, len(t.Devices))
	s.xbar = make([]int, len(t.Devices))
	for di, d := range t.Devices {
		s.outLink[di] = make([]int, len(d.Ports))
		for i := range s.outLink[di] {
			s.outLink[di][i] = -1
		}
	}
	for li, ls := range t.Links {
		s.links = append(s.links,
			refLink{toDev: ls.DevB, toPort: ls.PortB, bpc: ls.BytesPerCycle, delay: ls.Delay},
			refLink{toDev: ls.DevA, toPort: ls.PortA, bpc: ls.BytesPerCycle, delay: ls.Delay})
		s.outLink[ls.DevA][ls.PortA] = 2 * li
		s.outLink[ls.DevB][ls.PortB] = 2*li + 1
		s.xbar[ls.DevA] = max(s.xbar[ls.DevA], ls.BytesPerCycle)
		s.xbar[ls.DevB] = max(s.xbar[ls.DevB], ls.BytesPerCycle)
	}

	if err := s.computeRoutes(); err != nil {
		return nil, err
	}
	for i := range s.flows {
		f := &s.flows[i]
		s.res.Flows[f.ID].MinPossible = s.minPathLatency(f.Src, f.Dst, f.Size)
	}
	return s, nil
}

// computeRoutes fills nextPort with DET shortest-path next hops,
// purposely independent of the topology's own routes (Topology.OutPort):
// a shared routing bug would otherwise escape the differential. A
// switch's level is its hop distance to the nearest endpoint, less one;
// among equal-cost ports a 2k-port switch at level l takes up port k +
// the destination's radix-k digit l, else the lowest.
func (s *RefSim) computeRoutes() error {
	nd := len(s.t.Devices)
	ne := s.t.NumEndpoints()
	leaf := s.hops(func(v int) bool { return s.t.Devices[v].Kind == topo.Endpoint })
	s.nextPort = make([][]int, nd)
	for i := range s.nextPort {
		s.nextPort[i] = make([]int, ne)
		for e := range s.nextPort[i] {
			s.nextPort[i][e] = -1
		}
	}
	for e := 0; e < ne; e++ {
		dst := s.t.EndpointDevice(e)
		dist := s.hops(func(v int) bool { return v == dst })
		for v := 0; v < nd; v++ {
			if v == dst || dist[v] == math.MaxInt {
				continue
			}
			// digit is e's radix-k digit at v's level, leaf[v]-1: 0
			// when k is 1, and a device with one port has no tie.
			ports := s.t.Devices[v].Ports
			k, digit := len(ports)/2, e
			for l := leaf[v]; l > 1 && k > 1; l-- {
				digit /= k
			}
			// The first equal-cost port, unless DET's up port is another.
			for pi, c := range ports {
				if c.Peer >= 0 && dist[c.Peer] == dist[v]-1 && (s.nextPort[v][e] < 0 || pi == k+digit%k) {
					s.nextPort[v][e] = pi
				}
			}
			if s.nextPort[v][e] < 0 {
				return fmt.Errorf("oracle: no route from device %d to endpoint %d", v, e)
			}
		}
	}
	return nil
}

// hops returns every device's hop distance to the nearest device src
// accepts (math.MaxInt when unreachable).
func (s *RefSim) hops(src func(v int) bool) []int {
	dist := make([]int, len(s.t.Devices))
	var queue []int
	for v := range dist {
		dist[v] = math.MaxInt
		if src(v) {
			dist[v], queue = 0, append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range s.t.Devices[v].Ports {
			if c.Peer >= 0 && dist[c.Peer] == math.MaxInt {
				dist[c.Peer] = dist[v] + 1
				queue = append(queue, c.Peer)
			}
		}
	}
	return dist
}

// path returns the directed links, in order, of the routed path from
// endpoint src to endpoint dst.
func (s *RefSim) path(src, dst int) []int {
	var out []int
	for dev := s.t.EndpointDevice(src); dev != s.t.EndpointDevice(dst); dev = s.links[out[len(out)-1]].toDev {
		port := 0 // endpoints have one port
		if s.t.Devices[dev].Kind == topo.Switch {
			port = s.nextPort[dev][dst]
		}
		out = append(out, s.outLink[dev][port])
	}
	return out
}

// minPathLatency returns the analytic floor on the routed path: one
// serialization at the slowest link plus the sum of propagation delays.
func (s *RefSim) minPathLatency(src, dst, size int) sim.Cycle {
	var delays sim.Cycle
	minBPC := math.MaxInt
	for _, li := range s.path(src, dst) {
		delays += s.links[li].delay
		minBPC = min(minBPC, s.links[li].bpc)
	}
	return ser(size, minBPC) + delays
}

// at schedules fn at cycle c (FIFO among same-cycle events).
func (s *RefSim) at(c sim.Cycle, fn func()) {
	s.seq++
	s.push(refEvent{at: c, seq: s.seq, fn: fn})
}

func (e refEvent) before(o refEvent) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (s *RefSim) push(ev refEvent) {
	h := append(s.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	s.events = h
}

func (s *RefSim) pop() refEvent {
	h := s.events
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = refEvent{}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].before(h[l]) {
			m = r
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	s.events = h
	return top
}

// Run executes the reference simulation up to (and excluding) cycle
// `until` and returns the result. Emission times are computed with the
// exact floating-point accumulator the real traffic generator uses, so
// on runs where the engine's sources never stall both simulators offer
// byte-identical packet sequences.
func (s *RefSim) Run(until sim.Cycle) *RefResult {
	var ids pkt.IDGen
	for i := range s.flows {
		f := s.flows[i]
		size := f.Size
		if size == 0 {
			size = pkt.MTU
		}
		bpc := s.sourceBPC(f.Src)
		st := s.res.Flows[f.ID]
		acc := 0.0
		end := f.End
		if end > until {
			end = until
		}
		for c := f.Start; c < end; c++ {
			// Reference sources never stall (unbounded queues), so the
			// generator's saturation cap never binds; the additions and
			// subtractions below replay the engine's float stream 1:1.
			acc += f.Rate * float64(bpc)
			for acc >= float64(size) {
				acc -= float64(size)
				p := pkt.NewData(&ids, f.Src, f.Dst, f.ID, size, c)
				st.OfferedPkts++
				st.OfferedBytes += size
				s.emitAt(c, p)
			}
		}
	}

	for len(s.events) > 0 && s.events[0].at < until {
		ev := s.pop()
		s.now = ev.at
		ev.fn()
	}
	s.res.Drained = true
	for _, id := range flowIDs(s.res.Flows) {
		if st := s.res.Flows[id]; st.DeliveredPkts != st.OfferedPkts {
			s.res.Drained = false
		}
	}
	return s.res
}

// sourceBPC is endpoint e's injection-link bandwidth.
func (s *RefSim) sourceBPC(e int) int {
	dev := s.t.EndpointDevice(e)
	return s.links[s.outLink[dev][0]].bpc
}

// emitAt queues a packet at its source's injection link at cycle c.
func (s *RefSim) emitAt(c sim.Cycle, p *pkt.Packet) {
	dev := s.t.EndpointDevice(p.Src)
	li := s.outLink[dev][0]
	s.at(c, func() { s.enqueue(li, p) })
}

// enqueue appends p to a directed link's FIFO and starts service if
// the link is idle.
func (s *RefSim) enqueue(li int, p *pkt.Packet) {
	l := &s.links[li]
	l.fifo = append(l.fifo, p)
	s.tryStart(li)
}

// tryStart begins transmitting the FIFO head if the link is free.
// Store-and-forward: the packet is fully at the receiver after
// serialization plus propagation; the link frees after serialization.
func (s *RefSim) tryStart(li int) {
	l := &s.links[li]
	if s.now < l.busyTill || len(l.fifo) == 0 {
		return
	}
	p := l.fifo[0]
	copy(l.fifo, l.fifo[1:])
	l.fifo[len(l.fifo)-1] = nil
	l.fifo = l.fifo[:len(l.fifo)-1]
	done := s.now + ser(p.Size, l.bpc)
	l.busyTill = done
	s.at(done, func() { s.tryStart(li) })
	s.at(done+l.delay, func() { s.arrive(li, p) })
}

// arrive lands a fully received packet at the link's far device:
// endpoints consume it, switches forward it into the next output FIFO
// after one crossbar transfer. An input port carries one transfer at a
// time, so a packet that lands while the port's last one is crossing
// waits for it.
func (s *RefSim) arrive(li int, p *pkt.Packet) {
	dev := s.links[li].toDev
	d := &s.t.Devices[dev]
	if d.Kind == topo.Endpoint {
		st := s.res.Flows[p.Flow]
		st.DeliveredPkts++
		st.DeliveredBytes += p.Size
		st.Latencies = append(st.Latencies, s.now-p.Injected)
		s.res.TotalPkts++
		s.res.TotalBytes += p.Size
		s.res.LastDelivery = s.now
		return
	}
	l := &s.links[li]
	l.xbarFree = max(s.now, l.xbarFree) + ser(p.Size, s.xbar[dev])
	s.at(l.xbarFree, func() { s.enqueue(s.outLink[dev][s.nextPort[dev][p.Dst]], p) })
}
