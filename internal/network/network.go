// Package network assembles a runnable simulation out of the building
// blocks: it instantiates switches and end nodes for a topology,
// computes routing tables, wires both directions of every link with
// the configured bandwidth and delay, sizes the credit loops, and
// attaches metrics collection and traffic generation.
package network

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/endnode"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/link"
	"repro/internal/metrics"
	"repro/internal/pkt"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/switchfab"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Options configure a build.
type Options struct {
	// Seed drives every random stream; identical seeds give identical
	// runs. Defaults to 1.
	Seed int64
	// BinCycles is the metrics bin width (default: 50 us).
	BinCycles sim.Cycle
	// TieBreak selects equal-cost routes (nil = route.DefaultTieBreak;
	// fat trees should pass (*topo.FatTree).DETTieBreak).
	TieBreak route.TieBreak
	// DisableInvariants opts out of the always-on runtime checker
	// (micro-benchmarks squeezing the last cycles; everything else
	// should leave it on — it audits once per ~1k cycles and is
	// outcome-neutral).
	DisableInvariants bool
	// WatchdogWindow overrides the forward-progress watchdog: cycles
	// of buffered-but-motionless traffic before declaring deadlock
	// (0 = checker default, <0 = watchdog off).
	WatchdogWindow sim.Cycle
	// OnViolation consumes invariant violations (nil panics with the
	// *invariant.Violation, which the runner recovers per job).
	OnViolation func(*invariant.Violation)
}

// Network is a fully wired simulation instance.
type Network struct {
	Eng       *sim.Engine
	Topo      *topo.Topology
	Tables    *route.Tables
	Params    core.Params
	Switches  []*switchfab.Switch // indexed in device-id order of switches
	Nodes     []*endnode.Node     // indexed by endpoint id
	Collector *metrics.Collector
	Gen       *traffic.Generator
	Checker   *invariant.Checker // nil when Options.DisableInvariants

	ids     pkt.IDGen
	pool    pkt.Pool // packet free-list shared by sources, nodes and links
	byDev   map[int]*switchfab.Switch
	linkBPC []int // injection bandwidth per endpoint

	// halves is dense, indexed by stable half id assigned in wiring
	// order: link li's A->B direction is halves[2*li], B->A is
	// halves[2*li+1] (the fault injector resolves halves without map
	// lookups).
	halves   []*link.Half
	injector *fault.Injector
}

// Build wires a network for the given topology and scheme parameters.
func Build(t *topo.Topology, p core.Params, opt Options) (*Network, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.BinCycles == 0 {
		opt.BinCycles = sim.CyclesFromNS(50_000) // 50 us
	}
	for _, d := range t.Devices {
		if d.Kind == topo.Switch && len(d.Ports) > switchfab.MaxPorts {
			return nil, fmt.Errorf("network: switch %s has %d ports; the engine supports at most %d per switch (port sets are uint64 masks)",
				d.Label, len(d.Ports), switchfab.MaxPorts)
		}
	}
	tables, err := route.Compute(t, opt.TieBreak)
	if err != nil {
		return nil, err
	}
	n := &Network{
		Eng:    sim.NewEngine(opt.Seed),
		Topo:   t,
		Tables: tables,
		Params: p,
		byDev:  make(map[int]*switchfab.Switch),
	}
	eng := n.Eng
	ne := t.NumEndpoints()

	// Endpoint injection bandwidths (for normalisation and traffic).
	n.linkBPC = make([]int, ne)
	minBPC := 0
	for e := 0; e < ne; e++ {
		dev := t.EndpointDevice(e)
		l := t.Links[t.Devices[dev].Ports[0].Link]
		n.linkBPC[e] = l.BytesPerCycle
		if minBPC == 0 || l.BytesPerCycle < minBPC {
			minBPC = l.BytesPerCycle
		}
	}
	n.Collector = metrics.New(opt.BinCycles, ne, minBPC)

	// Devices.
	n.Nodes = make([]*endnode.Node, ne)
	for e := 0; e < ne; e++ {
		node := endnode.New(eng, e, &n.Params, ne, &n.ids, &n.pool)
		node.SetDeliverHook(n.Collector.Delivered)
		n.Nodes[e] = node
	}
	for _, d := range t.Devices {
		if d.Kind != topo.Switch {
			continue
		}
		dev := d.ID
		// Crossbar bandwidth: the fastest link attached to the switch
		// (Table I: 5 GB/s crossbars over mixed 2.5/5 GB/s links in
		// Config #1; 2.5 GB/s crossbars in Configs #2/#3).
		xbar := 0
		for _, c := range d.Ports {
			if c.Peer >= 0 && t.Links[c.Link].BytesPerCycle > xbar {
				xbar = t.Links[c.Link].BytesPerCycle
			}
		}
		sw := switchfab.New(eng, dev, d.Label, len(d.Ports), &n.Params,
			func(dest int) int { return tables.OutPort(dev, dest) }, ne, xbar)
		ports := d.Ports
		sw.SetLookahead(func(out, dest int) int {
			c := ports[out]
			if c.Peer < 0 || t.Devices[c.Peer].Kind == topo.Endpoint {
				return 0
			}
			nh := tables.OutPort(c.Peer, dest)
			if nh < 0 {
				return 0
			}
			return nh
		})
		n.Switches = append(n.Switches, sw)
		n.byDev[dev] = sw
	}

	// Links: one Half per direction, receivers at the far end, credits
	// sized to the far end's receive memory. Half ids are dense and
	// stable: link li contributes halves[2*li] (A->B) and halves[2*li+1]
	// (B->A).
	n.halves = make([]*link.Half, 0, 2*len(t.Links))
	for li, ls := range t.Links {
		ab := link.NewHalf(eng, fmt.Sprintf("L%d:%d->%d", li, ls.DevA, ls.DevB), ls.BytesPerCycle, ls.Delay)
		ba := link.NewHalf(eng, fmt.Sprintf("L%d:%d->%d", li, ls.DevB, ls.DevA), ls.BytesPerCycle, ls.Delay)
		ab.SetReceivers(n.pktRx(ls.DevB, ls.PortB), n.ctlRx(ls.DevB, ls.PortB))
		ba.SetReceivers(n.pktRx(ls.DevA, ls.PortA), n.ctlRx(ls.DevA, ls.PortA))
		n.attach(ls.DevA, ls.PortA, ab, n.creditPool(ls.DevB))
		n.attach(ls.DevB, ls.PortB, ba, n.creditPool(ls.DevA))
		n.halves = append(n.halves, ab, ba)
		ab.SetDropHandler(n.dropHandler(ls.DevA, ls.PortA))
		ba.SetDropHandler(n.dropHandler(ls.DevB, ls.PortB))
	}

	if !opt.DisableInvariants {
		// Attached after every component so the audit ticks last in the
		// device phase, seeing each cycle's settled state.
		n.Checker = invariant.Attach(eng, invariant.Config{
			Nodes:          n.Nodes,
			Switches:       n.Switches,
			Halves:         n.halves,
			WatchdogWindow: opt.WatchdogWindow,
			OnViolation:    opt.OnViolation,
		})
	}
	return n, nil
}

// PartitionStats is the shape bench/ reads from PartitionInfo. Kept only
// for bench/, with the other names DESIGN.md §9 lists as bench-only.
type PartitionStats struct {
	N, CutLinks int
	Window      sim.Cycle
}

// PartitionInfo always returns nil: a network runs on one engine. Kept
// only for bench/, with the other names DESIGN.md §9 lists as bench-only.
func (n *Network) PartitionInfo() *PartitionStats { return nil }

// dropHandler builds the lossless-aware consumer for packets condemned
// by a drop-policy link flap on the direction port `port` of device dev
// transmits on: the sender already took credit for receive-buffer space
// the packet will never occupy, so the sending device gets it back
// through its own RefundCredit (which restarts whatever waited for that
// credit), and the packet, owned by the wire at that point, goes back to
// the free-list. All captured at wiring time.
func (n *Network) dropHandler(dev, port int) func(*pkt.Packet) {
	if d := n.Topo.Devices[dev]; d.Kind == topo.Endpoint {
		nd := n.Nodes[d.EndpointID]
		return func(p *pkt.Packet) { nd.RefundCredit(p.Dst, p.Size); n.pool.Release(p) }
	}
	sw := n.byDev[dev]
	return func(p *pkt.Packet) { sw.RefundCredit(port, p.Dst, p.Size); n.pool.Release(p) }
}

// HalfByEnds resolves the transmit direction from device `from` to its
// neighbor `to` via the dense half-id layout (2*link for the A->B
// direction, 2*link+1 for B->A), or nil when the devices are not
// adjacent. Fault scripts address links this way.
func (n *Network) HalfByEnds(from, to int) *link.Half {
	if from < 0 || from >= len(n.Topo.Devices) {
		return nil
	}
	for _, c := range n.Topo.Devices[from].Ports {
		if c.Peer != to {
			continue
		}
		if n.Topo.Links[c.Link].DevA == from {
			return n.halves[2*c.Link]
		}
		return n.halves[2*c.Link+1]
	}
	return nil
}

// creditPool builds the credit pool mirroring dev's receive buffers:
// shared RAM for an endpoint, the discipline's own shape for a switch.
func (n *Network) creditPool(dev int) *core.CreditPool {
	if n.Topo.Devices[dev].Kind == topo.Endpoint {
		return core.NewSharedCredits(n.Params.IARAM)
	}
	return n.Params.PortCredits(n.Topo.NumEndpoints())
}

func (n *Network) pktRx(dev, port int) link.PacketReceiver {
	if n.Topo.Devices[dev].Kind == topo.Endpoint {
		return n.Nodes[n.Topo.Devices[dev].EndpointID]
	}
	return n.byDev[dev].PacketReceiver(port)
}

func (n *Network) ctlRx(dev, port int) link.ControlReceiver {
	if n.Topo.Devices[dev].Kind == topo.Endpoint {
		return n.Nodes[n.Topo.Devices[dev].EndpointID]
	}
	return n.byDev[dev].ControlReceiver(port)
}

func (n *Network) attach(dev, port int, tx *link.Half, credits *core.CreditPool) {
	if n.Topo.Devices[dev].Kind == topo.Endpoint {
		n.Nodes[n.Topo.Devices[dev].EndpointID].AttachLink(tx, credits)
		return
	}
	n.byDev[dev].AttachLink(port, tx, credits)
}

// SwitchByDevice returns the switch with the given device id.
func (n *Network) SwitchByDevice(dev int) *switchfab.Switch { return n.byDev[dev] }

// AddFlows installs the traffic pattern. Call once before running.
func (n *Network) AddFlows(flows []traffic.Flow) error {
	if n.Gen != nil {
		return fmt.Errorf("network: flows already installed")
	}
	gen, err := traffic.NewGenerator(n.Eng, n.Nodes, n.linkBPC, flows, &n.ids, &n.pool, n.Collector.Injected)
	if err != nil {
		return err
	}
	n.Gen = gen
	if n.Checker != nil {
		n.Checker.Sources = append(n.Checker.Sources, gen) // for the snapshot
	}
	return n.declare(flows)
}

// declare gives every flow its collector record, the finite
// fixed-destination ones tracked for completion time.
func (n *Network) declare(flows []traffic.Flow) error {
	n.Collector.Expect(len(flows))
	for _, f := range flows {
		bytes, ideal, err := int64(0), sim.Cycle(0), error(nil)
		if f.Bytes > 0 && f.Dst != traffic.UniformDst {
			if ideal, err = n.IdealFCT(f.Src, f.Dst, f.Bytes, f.PktSize); err != nil {
				return err
			}
			bytes = f.Bytes
		}
		if err = n.Collector.Declare(f.ID, bytes, f.Start, f.End, ideal); err != nil {
			return err
		}
	}
	return nil
}

// IdealFCT returns a finite flow's contention-free completion time in
// cycles: the first packet store-and-forwards hop by hop along the
// routed path (serialization at each link's own bandwidth plus its
// propagation delay), and the remaining bytes stream pipelined behind
// it at the path's bottleneck rate. This is the denominator of the FCT
// slowdown metric. pktSize 0 means MTU.
func (n *Network) IdealFCT(src, dst int, size int64, pktSize int) (sim.Cycle, error) {
	if size <= 0 {
		return 0, fmt.Errorf("network: ideal FCT of a %d-byte flow", size)
	}
	if pktSize <= 0 {
		pktSize = pkt.MTU
	}
	first := size
	if first > int64(pktSize) {
		first = int64(pktSize)
	}
	dev := n.Topo.EndpointDevice(src)
	target := n.Topo.EndpointDevice(dst)
	var total sim.Cycle
	bottleneck := 0
	for hops := 0; dev != target; hops++ {
		if hops > len(n.Topo.Devices) {
			return 0, fmt.Errorf("network: routing loop computing ideal FCT %d->%d", src, dst)
		}
		port := n.Tables.OutPort(dev, dst)
		if port < 0 || port >= len(n.Topo.Devices[dev].Ports) {
			return 0, fmt.Errorf("network: no route %d->%d at device %d", src, dst, dev)
		}
		c := n.Topo.Devices[dev].Ports[port]
		l := n.Topo.Links[c.Link]
		bpc := int64(l.BytesPerCycle)
		total += sim.Cycle((first+bpc-1)/bpc) + l.Delay
		if bottleneck == 0 || l.BytesPerCycle < bottleneck {
			bottleneck = l.BytesPerCycle
		}
		dev = c.Peer
	}
	if rem := size - first; rem > 0 && bottleneck > 0 {
		b := int64(bottleneck)
		total += sim.Cycle((rem + b - 1) / b)
	}
	if total < 1 {
		total = 1
	}
	return total, nil
}

// LinkLoad reports one link direction's lifetime statistics.
type LinkLoad struct {
	Name        string
	Utilization float64 // busy cycles / elapsed cycles
	Pkts        int
	Bytes       int
}

// LinkLoads returns utilization for every link direction since the
// start of the simulation, in wiring order — the data behind a link
// heat map.
func (n *Network) LinkLoads() []LinkLoad {
	now := n.Eng.Now()
	out := make([]LinkLoad, 0, len(n.halves))
	for _, h := range n.halves {
		l := LinkLoad{Name: h.Name()}
		l.Pkts, l.Bytes = h.Sent()
		if now > 0 {
			l.Utilization = float64(h.BusyCycles()) / float64(now)
		}
		out = append(out, l)
	}
	return out
}

// NewPacket mints an MTU-sized data packet with a network-unique id,
// timestamped now — for tools and tests that inject traffic outside
// the Generator. The invariant checker is told about it so manual
// injection stays conservation-clean.
func (n *Network) NewPacket(src, dst, flow int) *pkt.Packet {
	p := n.pool.NewData(&n.ids, src, dst, flow, pkt.MTU, n.Eng.Now())
	if n.Checker != nil {
		n.Checker.ExternalInjected(p)
	}
	return p
}

// Run advances the simulation by d cycles.
func (n *Network) Run(d sim.Cycle) { n.Eng.RunFor(d) }

// RunAudited is Run as every job front door runs it: a mid-run
// *invariant.Violation panic comes back as the error (any other panic
// propagates), and a clean run ends with the checker's terminal audit.
func (n *Network) RunAudited(d sim.Cycle) (err error) {
	defer func() {
		p := recover()
		if v, ok := p.(*invariant.Violation); ok {
			err = v
		} else if p != nil {
			panic(p)
		}
	}()
	n.Run(d)
	if n.Checker == nil {
		return nil
	}
	return n.Checker.Final()
}

// RunMS advances the simulation by ms milliseconds of simulated time.
func (n *Network) RunMS(ms float64) { n.Run(sim.CyclesFromMS(ms)) }

// TotalOffered sums packets accepted into AdVOQs across all nodes.
func (n *Network) TotalOffered() (pkts, bytes int) {
	for _, nd := range n.Nodes {
		pkts += nd.Stats().Offered
		bytes += nd.Stats().OfferedBytes
	}
	return
}

// TotalDelivered sums sink deliveries across all nodes.
func (n *Network) TotalDelivered() (pkts, bytes int) {
	for _, nd := range n.Nodes {
		pkts += nd.Stats().Delivered
		bytes += nd.Stats().DeliveredBytes
	}
	return
}

// Elided says what a run skipped and what it ran instead. A pure function
// of the simulation, but telemetry only: in no Result and no digest.
type Elided struct {
	CoolPortCycles, SwitchCyclesSlept, NodeCyclesSkipped int    // input ports cool, switches asleep, end nodes skipping, all holding packets
	FlowVisits, FlowCyclesSkipped                        int64  // flows the generators visited, and live flows they let lie for a cycle
	WheelEvents, HeapEvents, Ticks                       uint64 // the engine's work: events fired by origin, ticks dispatched
	PacketsFresh, PacketsReused                          int    // packets the pool allocated, and served from its free-list
}

// Elided sums the devices' counters, splits the engine's, reads the pool's.
func (n *Network) Elided() (e Elided) {
	for _, sw := range n.Switches {
		st := sw.Stats()
		e.CoolPortCycles, e.SwitchCyclesSlept = e.CoolPortCycles+st.PortCyclesElided, e.SwitchCyclesSlept+st.CyclesNapped
	}
	for _, nd := range n.Nodes {
		e.NodeCyclesSkipped += nd.Stats().CyclesElided
	}
	if n.Gen != nil {
		e.FlowVisits, e.FlowCyclesSkipped = n.Gen.Visits()
	}
	e.WheelEvents, e.HeapEvents, e.Ticks = n.Eng.Counts()
	e.PacketsFresh, e.PacketsReused = n.pool.Allocs, n.pool.Reuses
	return
}

// DiscStatsSum aggregates discipline counters over all switch ports.
func (n *Network) DiscStatsSum() core.DiscStats {
	var total core.DiscStats
	for _, sw := range n.Switches {
		for i := 0; i < n.portCount(sw); i++ {
			s := sw.InputDisc(i).Stats()
			total.Detections += s.Detections
			total.LazyAllocs += s.LazyAllocs
			total.CAMExhausted += s.CAMExhausted
			total.Deallocs += s.Deallocs
			total.PostMoves += s.PostMoves
			total.StopsSent += s.StopsSent
			total.GoesSent += s.GoesSent
			total.DirectArrivals += s.DirectArrivals
			total.MisroutedDirect += s.MisroutedDirect
			if s.MaxCFQsInUse > total.MaxCFQsInUse {
				total.MaxCFQsInUse = s.MaxCFQsInUse
			}
		}
	}
	return total
}

func (n *Network) portCount(sw *switchfab.Switch) int {
	return len(n.Topo.Devices[sw.ID()].Ports)
}
