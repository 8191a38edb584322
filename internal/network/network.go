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
	// SimWorkers runs the simulation on this many worker goroutines: the
	// device graph is cut into shard engines (several per worker, see
	// MakePartition) that advance in lockstep windows with deterministic
	// barriers (DESIGN.md §9). Results are byte-identical to the serial
	// engine. <= 1 (the default) builds the unchanged single-engine
	// network; values above the switch count are capped.
	SimWorkers int
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
	pool    pkt.Pool // shard 0's packet free-list (the only one when serial)
	byDev   map[int]*switchfab.Switch
	linkBPC []int // injection bandwidth per endpoint
	minBPC  int   // slowest endpoint link (collector normalisation)

	// halves is dense, indexed by stable half id assigned in wiring
	// order: link li's A->B direction is halves[2*li], B->A is
	// halves[2*li+1] (the fault injector resolves halves without map
	// lookups).
	halves   []*link.Half
	injector *fault.Injector

	// Partitioned execution (nil/empty when serial).
	part      *Partition
	par       *sim.Parallel
	engines   []*sim.Engine
	cuts      []cutHalf            // cut directions in half-id order
	cutPosted []bool               // cutPosted[i]: cuts[i] was posted into since the last barrier
	shardIDs  []*pkt.IDGen         // per-shard id generators ([0] = &ids)
	shardPool []*pkt.Pool          // per-shard packet free-lists ([0] = &pool)
	shardCols []*metrics.Collector // per-shard collectors feeding the merged view
	gens      []*traffic.Generator // per-shard generators (gens[0] == Gen)
	nextAudit sim.Cycle            // next barrier cycle to run the invariant audit
}

// cutHalf is one link direction that crosses shards, with the two
// mailboxes its sends post into (link.Half.Cut).
type cutHalf struct {
	half *link.Half
	wire *sim.Mailbox[link.Flight]
	ctl  *sim.Mailbox[link.Control]
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
		Topo:   t,
		Tables: tables,
		Params: p,
		byDev:  make(map[int]*switchfab.Switch),
	}

	// Partitioned mode: cut the device graph and build one engine per
	// shard, all sharing seed and RNG-derivation counter so that the
	// serial global build order below hands out exactly the serial
	// random streams. MakePartition returns nil for topologies too small
	// to shard, falling back to the unchanged serial engine.
	if opt.SimWorkers > 1 {
		part, perr := MakePartition(t, opt.SimWorkers)
		if perr != nil {
			return nil, perr
		}
		n.part = part
	}
	if n.part != nil {
		n.engines = sim.NewEngineGroup(opt.Seed, n.part.N)
	} else {
		n.engines = []*sim.Engine{sim.NewEngine(opt.Seed)}
	}
	n.Eng = n.engines[0]
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
	n.minBPC = minBPC

	// Per-shard packet plumbing. Serial keeps the embedded ids/pool and
	// the single collector; partitioned shards each get their own (ids
	// are behavior-neutral — nothing orders on packet id — and the
	// collectors merge exactly, so the digest cannot tell the difference).
	n.shardIDs = []*pkt.IDGen{&n.ids}
	n.shardPool = []*pkt.Pool{&n.pool}
	n.Collector = metrics.New(opt.BinCycles, ne, minBPC)
	n.shardCols = []*metrics.Collector{n.Collector}
	for s := 1; s < len(n.engines); s++ {
		n.shardIDs = append(n.shardIDs, &pkt.IDGen{})
		n.shardPool = append(n.shardPool, &pkt.Pool{})
		n.shardCols = append(n.shardCols, metrics.New(opt.BinCycles, ne, minBPC))
	}
	if n.part != nil {
		// The exported Collector becomes the merged view, rebuilt after
		// every Run; the per-shard collectors are the live sinks.
		n.Collector = metrics.New(opt.BinCycles, ne, minBPC)
	}

	// Devices.
	n.Nodes = make([]*endnode.Node, ne)
	for e := 0; e < ne; e++ {
		s := n.shardOfDevice(t.EndpointDevice(e))
		node := endnode.New(n.engines[s], e, &n.Params, ne, n.shardIDs[s], n.shardPool[s])
		node.SetDeliverHook(n.shardCols[s].Delivered)
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
		sw := switchfab.New(n.engines[n.shardOfDevice(dev)], dev, d.Label, len(d.Ports), &n.Params,
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
	// (B->A). A direction whose ends live on different shards is a cut:
	// it delivers on the receiving shard's engine through mailboxes,
	// appended here in half-id order — the order the barrier drains them
	// in.
	n.halves = make([]*link.Half, 0, 2*len(t.Links))
	if n.part != nil {
		n.cutPosted = make([]bool, 2*n.part.CutLinks)
	}
	for li, ls := range t.Links {
		engA := n.engines[n.shardOfDevice(ls.DevA)]
		engB := n.engines[n.shardOfDevice(ls.DevB)]
		ab := link.NewHalf(engA, fmt.Sprintf("L%d:%d->%d", li, ls.DevA, ls.DevB), ls.BytesPerCycle, ls.Delay)
		ba := link.NewHalf(engB, fmt.Sprintf("L%d:%d->%d", li, ls.DevB, ls.DevA), ls.BytesPerCycle, ls.Delay)
		ab.SetReceivers(n.pktRx(ls.DevB, ls.PortB), n.ctlRx(ls.DevB, ls.PortB))
		ba.SetReceivers(n.pktRx(ls.DevA, ls.PortA), n.ctlRx(ls.DevA, ls.PortA))
		n.attach(ls.DevA, ls.PortA, ab, n.creditPool(ls.DevB))
		n.attach(ls.DevB, ls.PortB, ba, n.creditPool(ls.DevA))
		n.halves = append(n.halves, ab, ba)
		if engA != engB {
			n.cut(ab, engB)
			n.cut(ba, engA)
		}
		ab.SetDropHandler(n.dropHandler(ls.DevA, ls.PortA))
		ba.SetDropHandler(n.dropHandler(ls.DevB, ls.PortB))
	}

	if !opt.DisableInvariants {
		cfg := invariant.Config{
			Nodes:          n.Nodes,
			Switches:       n.Switches,
			Halves:         n.halves,
			WatchdogWindow: opt.WatchdogWindow,
			OnViolation:    opt.OnViolation,
		}
		if n.part == nil {
			// Attached after every component so the audit ticks last in
			// the device phase, seeing each cycle's settled state.
			n.Checker = invariant.Attach(eng, cfg)
		} else {
			// A per-engine ticker would only see one shard; instead the
			// window barrier audits the whole network at its quiescent
			// points, paced to roughly the same interval.
			n.Checker = invariant.Detached(eng, cfg)
		}
	}
	if n.part != nil {
		n.par = sim.NewParallel(n.engines, n.part.Workers, n.part.Window, n.barrier)
	}
	return n, nil
}

// cut registers h as the next cut direction, delivering on dst.
func (n *Network) cut(h *link.Half, dst *sim.Engine) {
	wire, ctl := h.Cut(dst, 4*int(n.part.Window)+8, &n.cutPosted[len(n.cuts)])
	n.cuts = append(n.cuts, cutHalf{h, wire, ctl})
}

// shardOfDevice maps a device to its shard index (0 when serial).
func (n *Network) shardOfDevice(dev int) int {
	if n.part == nil {
		return 0
	}
	return n.part.ShardOf[dev]
}

// barrier runs single-threaded between lockstep windows with every
// shard parked at cycle now: it drains the cut-link mailboxes in dense
// half-id order (making cross-shard delivery order a pure function of
// simulation state) and runs the periodic whole-network invariant
// audit, which is only coherent here.
func (n *Network) barrier(now sim.Cycle) {
	for i, posted := range n.cutPosted {
		if !posted {
			continue
		}
		n.cutPosted[i] = false
		c := &n.cuts[i]
		c.wire.Drain()
		c.ctl.Drain()
		c.half.RecycleRemote()
	}
	if n.Checker != nil && now >= n.nextAudit {
		n.Checker.CheckAt(now)
		n.nextAudit = now + n.Checker.CheckEvery()
	}
}

// PartitionStats describes a partitioned network's cut and what its
// coordinator has done so far. Everything in it is a pure function of
// the simulation (the work figures are event and tick counts, not
// times), but none of it is part of a Result or a digest.
type PartitionStats struct {
	Partition
	// Windows run, and window-width rendezvous Skipped on top.
	sim.ParallelStats
	// WorkImbalance is the busiest shard's work (events fired plus ticks
	// executed) over the mean shard's: 1 is a perfectly even cut, N a
	// cut that left all the work in one of N shards. 0 before any work.
	WorkImbalance float64
}

func (s *PartitionStats) String() string {
	return fmt.Sprintf("partition: %d shards on %d workers, %d cut links, window %d cycles; %d windows run, %d skipped; shard work max/mean %.2f",
		s.N, s.Workers, s.CutLinks, s.Window, s.Windows, s.Skipped, s.WorkImbalance)
}

// PartitionInfo returns the partition driving a partitioned network
// and its run-time counters (nil when serial) — diagnostics and tests.
func (n *Network) PartitionInfo() *PartitionStats {
	if n.part == nil {
		return nil
	}
	s := &PartitionStats{Partition: *n.part, ParallelStats: n.par.Stats()}
	var total, most uint64
	for _, e := range n.engines {
		w := e.Work()
		total += w
		most = max(most, w)
	}
	if total > 0 {
		s.WorkImbalance = float64(most) * float64(len(n.engines)) / float64(total)
	}
	return s
}

// dropHandler builds the lossless-aware consumer for packets condemned
// by a drop-policy link flap on the direction port `port` of device dev
// transmits on: the sender already took credit for receive-buffer space
// the packet will never occupy, so the sending device gets it back
// through its own RefundCredit (which restarts whatever waited for that
// credit), and the packet, owned by the wire at that point, goes to the
// sending shard's free-list. All captured at wiring time.
func (n *Network) dropHandler(dev, port int) func(*pkt.Packet) {
	pp := n.shardPool[n.shardOfDevice(dev)]
	if d := n.Topo.Devices[dev]; d.Kind == topo.Endpoint {
		nd := n.Nodes[d.EndpointID]
		return func(p *pkt.Packet) { nd.RefundCredit(p.Dst, p.Size); pp.Release(p) }
	}
	sw := n.byDev[dev]
	return func(p *pkt.Packet) { sw.RefundCredit(port, p.Dst, p.Size); pp.Release(p) }
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
	if n.part == nil {
		gen, err := traffic.NewGenerator(n.Eng, n.Nodes, n.linkBPC, flows, &n.ids, &n.pool, n.Collector.Injected)
		if err != nil {
			return err
		}
		n.gens = []*traffic.Generator{gen}
	} else {
		// Partitioned: one generator per shard, each driving the flows whose
		// source endpoint lives there, drawing uniform-destination RNGs in
		// global flow order off the shared derivation counter.
		shardOfNode := make([]int, len(n.Nodes))
		for e := range n.Nodes {
			shardOfNode[e] = n.shardOfDevice(n.Topo.EndpointDevice(e))
		}
		hooks := make([]traffic.InjectHook, len(n.engines))
		for s := range hooks {
			hooks[s] = n.shardCols[s].Injected
		}
		gens, err := traffic.NewSharded(n.engines, shardOfNode, n.Nodes, n.linkBPC, flows, n.shardIDs, n.shardPool, hooks)
		if err != nil {
			return err
		}
		n.gens = gens
	}
	n.Gen = n.gens[0]
	if n.Checker != nil {
		for _, g := range n.gens {
			n.Checker.Sources = append(n.Checker.Sources, g) // for the snapshot
		}
	}
	return n.registerFCT(flows)
}

// registerFCT declares every finite fixed-destination flow for
// completion-time tracking. A flow registers on the collector of the
// shard owning its *destination* endpoint — the shard that observes
// every one of its deliveries — so per-shard FCT records stay disjoint
// and Collector.Merge reproduces the serial stats exactly.
func (n *Network) registerFCT(flows []traffic.Flow) error {
	var seen map[int]bool
	for _, f := range flows {
		if f.Bytes <= 0 || f.Dst == traffic.UniformDst {
			continue
		}
		if seen == nil {
			seen = make(map[int]bool)
		}
		if seen[f.ID] {
			return fmt.Errorf("network: finite flows share id %d; FCT tracking needs unique ids", f.ID)
		}
		seen[f.ID] = true
		ideal, err := n.IdealFCT(f.Src, f.Dst, f.Bytes, f.PktSize)
		if err != nil {
			return err
		}
		s := n.shardOfDevice(n.Topo.EndpointDevice(f.Dst))
		n.shardCols[s].RegisterFlow(f.ID, f.Bytes, f.Start, ideal)
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
	// Chaos tests mint packets with out-of-range sources on purpose;
	// those (and serial runs) draw from shard 0.
	s := 0
	if n.part != nil && src >= 0 && src < n.Topo.NumEndpoints() {
		s = n.shardOfDevice(n.Topo.EndpointDevice(src))
	}
	p := n.shardPool[s].NewData(n.shardIDs[s], src, dst, flow, pkt.MTU, n.Eng.Now())
	if n.Checker != nil {
		n.Checker.ExternalInjected(p)
	}
	return p
}

// Run advances the simulation by d cycles.
func (n *Network) Run(d sim.Cycle) {
	if n.par == nil {
		n.Eng.RunFor(d)
		return
	}
	n.par.RunFor(d)
	// The shard collectors are cumulative, so the merged view is rebuilt
	// from scratch after every advance.
	merged := metrics.New(n.Collector.BinCycles(), n.Topo.NumEndpoints(), n.minBPC)
	for _, c := range n.shardCols {
		merged.Merge(c)
	}
	n.Collector = merged
}

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
	WheelEvents, HeapEvents, Ticks                       uint64 // the engines' Work: events fired by origin, ticks dispatched
}

// Elided sums the devices' and engines' counters.
func (n *Network) Elided() (e Elided) {
	for _, sw := range n.Switches {
		st := sw.Stats()
		e.CoolPortCycles, e.SwitchCyclesSlept = e.CoolPortCycles+st.PortCyclesElided, e.SwitchCyclesSlept+st.CyclesNapped
	}
	for _, nd := range n.Nodes {
		e.NodeCyclesSkipped += nd.Stats().CyclesElided
	}
	for _, g := range n.gens {
		v, sk := g.Visits()
		e.FlowVisits, e.FlowCyclesSkipped = e.FlowVisits+v, e.FlowCyclesSkipped+sk
	}
	for _, eng := range n.engines {
		w, h, t := eng.Counts()
		e.WheelEvents, e.HeapEvents, e.Ticks = e.WheelEvents+w, e.HeapEvents+h, e.Ticks+t
	}
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
