// Package traffic generates the offered load: constant-bit-rate flows
// with activation windows (the sequentially activated flows of Cases
// #1 and #2), uniform random traffic (Cases #3 and #4), and hot-spot
// bursts (Case #4). Sources are rate-shaped with a per-flow byte
// accumulator and stall (without accumulating debt) when their AdVOQ
// backs up — the lossless-source model the paper's "injection at 100%
// of the link bandwidth" implies.
package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/endnode"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// UniformDst marks a flow that picks a fresh random destination
// (excluding the source) for every packet.
const UniformDst = -1

// Flow describes one traffic source.
type Flow struct {
	ID  int
	Src int
	// Dst is a fixed destination endpoint, or UniformDst.
	Dst int
	// Start and End bound the activation window [Start, End).
	Start, End sim.Cycle
	// Rate is the offered load as a fraction of the source's injection
	// link bandwidth (1.0 = the paper's "100% of the link bandwidth").
	Rate float64
	// PktSize is the packet size in bytes (default MTU if zero).
	PktSize int
	// Bytes, when positive, makes the flow finite: it sends exactly
	// Bytes bytes (the last packet may be shorter than PktSize) and then
	// deactivates, regardless of how much window remains — the open-loop
	// flow model datacenter FCT studies use. Zero keeps the unbounded
	// window-CBR semantics of the paper's Cases #1-#4.
	Bytes int64
}

// InjectHook observes every successful injection (metrics wiring).
type InjectHook func(p *pkt.Packet)

// Generator drives all flows of one simulation.
type Generator struct {
	eng   *sim.Engine
	nodes []*endnode.Node
	ids   *pkt.IDGen
	pool  *pkt.Pool // packet free-list (nil = plain allocation)
	bpc   []int     // injection-link bytes/cycle per source node
	hook  InjectHook

	// handle sleeps the generator while no flow is ready.
	handle *sim.TickerHandle

	flows []flowState

	// Sources run on deadlines (DESIGN.md §5): a flow is visited only in
	// a cycle it can act. ready holds the flows to visit in the coming
	// injection phase — in index order, an every-cycle scan's, which
	// decides who takes the last AdVOQ slot — filled by the flows' own
	// events (window opening and closing, the cycle the shaper covers a
	// packet) and by room, for the flows parked on a full AdVOQ of a node.
	ready  sim.ActiveSet
	parked [][]int32

	visits, skipped int64
}

// flowPhase is where a flow stands between visits.
type flowPhase uint8

const (
	pending flowPhase = iota // window not open yet
	due                      // accumulating to cycle last, or woken by room
	parked                   // fixed destination, AdVOQ full: room wakes it, or End
	hot                      // uniform destination, refused: redraws every cycle
	retired
)

type flowState struct {
	Flow
	acc    float64
	r, max float64    // arrivals per cycle (Rate x link bytes/cycle); stall clamp PktSize + r
	whole  bool       // r is integral: so is acc, always, and every sum of them is exact
	sent   int64      // bytes emitted so far (finite flows deactivate at Bytes)
	rng    *rand.Rand // only for uniform destinations
	// acc is an every-cycle scan's value at the end of cycle last; seen
	// is the cycle of the latest visit; wake marks the flow ready.
	last, seen sim.Cycle
	wake       func()
	phase      flowPhase
}

// done reports whether a finite flow has emitted its full size.
func (f *flowState) done() bool { return f.Bytes > 0 && f.sent >= f.Bytes }

// pktSize returns the next packet's size: PktSize, or the finite
// flow's remaining bytes when fewer are left.
func (f *flowState) pktSize() int {
	if f.Bytes > 0 {
		if rem := f.Bytes - f.sent; rem < int64(f.PktSize) {
			return int(rem)
		}
	}
	return f.PktSize
}

// step is one cycle of the rate shaper. A stalled source does not bank
// unbounded credit: it saturates at one packet's worth plus one cycle of
// arrivals, and step reports that clamp, a fixed point of further steps.
func (f *flowState) step() bool {
	if f.acc += f.r; f.acc > f.max {
		f.acc = f.max
		return true
	}
	return false
}

// NewGenerator builds a generator and registers it with the engine's
// injection phase. nodeBPC gives each endpoint's injection-link
// bandwidth in bytes/cycle; pool is the network's packet free-list
// (nil to allocate plainly).
func NewGenerator(eng *sim.Engine, nodes []*endnode.Node, nodeBPC []int, flows []Flow, ids *pkt.IDGen, pool *pkt.Pool, hook InjectHook) (*Generator, error) {
	if len(nodes) != len(nodeBPC) {
		return nil, fmt.Errorf("traffic: %d nodes but %d bandwidths", len(nodes), len(nodeBPC))
	}
	g := &Generator{eng: eng, nodes: nodes, ids: ids, pool: pool, bpc: nodeBPC, hook: hook}
	for _, f := range flows {
		if err := g.add(f); err != nil {
			return nil, err
		}
	}
	g.start()
	return g, nil
}

// add validates f and appends it, taking its random stream when it
// draws destinations. Construction-time only.
func (g *Generator) add(f Flow) error {
	if f.PktSize == 0 {
		f.PktSize = pkt.MTU
	}
	if err := validate(f, len(g.nodes)); err != nil {
		return err
	}
	// The first visit steps the shaper once, as the scan's first cycle did.
	first := max(f.Start, g.eng.Now())
	fs := flowState{Flow: f, last: first - 1, seen: first - 1}
	fs.r = f.Rate * float64(g.bpc[f.Src])
	fs.max, fs.whole = float64(f.PktSize)+fs.r, fs.r == math.Trunc(fs.r)
	if f.Dst == UniformDst {
		fs.rng = g.eng.RNG()
	}
	g.flows = append(g.flows, fs)
	return nil
}

// start schedules every flow's window opening and closing, sizes the
// parked lists and hooks the nodes flows can park on. Construction-time only.
func (g *Generator) start() {
	g.handle = g.eng.AddTicker(sim.PhaseInject, g.inject)
	g.ready.Grow(len(g.flows))
	g.parked = make([][]int32, len(g.nodes))
	fixed := make([]int, len(g.nodes))
	for i := range g.flows {
		f := &g.flows[i]
		f.wake = func() {
			g.ready.Add(i)
			g.handle.Wake()
		}
		g.eng.At(f.seen+1, f.wake)
		g.eng.At(max(f.End, f.seen+1), f.wake)
		if f.Dst != UniformDst {
			fixed[f.Src]++
		}
	}
	for src, n := range fixed {
		if n > 0 {
			g.parked[src] = make([]int32, 0, n)
			g.nodes[src].SetRoomHook(g.room)
		}
	}
}

// NewSharded builds one generator per shard engine over a common flow
// list for a partitioned run: each flow is driven on its source
// endpoint's shard. Flows are walked in global list order, so the
// uniform-destination RNG streams are drawn in exactly the sequence a
// single serial generator would draw them — the engines must come from
// sim.NewEngineGroup (one shared derivation counter) for that to hold.
// shardOfNode maps endpoint id -> shard index; ids, pools and hooks are
// per-shard. Shards with no flows still get a generator (it sleeps
// immediately), keeping per-shard wiring uniform.
func NewSharded(engines []*sim.Engine, shardOfNode []int, nodes []*endnode.Node, nodeBPC []int, flows []Flow, ids []*pkt.IDGen, pools []*pkt.Pool, hooks []InjectHook) ([]*Generator, error) {
	if len(nodes) != len(nodeBPC) {
		return nil, fmt.Errorf("traffic: %d nodes but %d bandwidths", len(nodes), len(nodeBPC))
	}
	if len(nodes) != len(shardOfNode) {
		return nil, fmt.Errorf("traffic: %d nodes but %d shard assignments", len(nodes), len(shardOfNode))
	}
	gens := make([]*Generator, len(engines))
	for i := range engines {
		gens[i] = &Generator{eng: engines[i], nodes: nodes, ids: ids[i], pool: pools[i], bpc: nodeBPC, hook: hooks[i]}
	}
	for _, f := range flows {
		if f.Src < 0 || f.Src >= len(nodes) {
			return nil, validate(f, len(nodes))
		}
		s := shardOfNode[f.Src]
		if s < 0 || s >= len(gens) {
			return nil, fmt.Errorf("traffic: flow %d source %d maps to shard %d of %d", f.ID, f.Src, s, len(gens))
		}
		if err := gens[s].add(f); err != nil {
			return nil, err
		}
	}
	for _, g := range gens {
		g.start()
	}
	return gens, nil
}

func validate(f Flow, n int) error {
	switch {
	case f.Src < 0 || f.Src >= n:
		return fmt.Errorf("traffic: flow %d has bad source %d", f.ID, f.Src)
	case f.Dst != UniformDst && (f.Dst < 0 || f.Dst >= n):
		return fmt.Errorf("traffic: flow %d has bad destination %d", f.ID, f.Dst)
	case f.Dst == f.Src:
		return fmt.Errorf("traffic: flow %d sends to itself", f.ID)
	case f.Rate <= 0 || f.Rate > 1:
		return fmt.Errorf("traffic: flow %d rate %v outside (0,1]", f.ID, f.Rate)
	case f.End <= f.Start:
		return fmt.Errorf("traffic: flow %d has empty window [%d,%d)", f.ID, f.Start, f.End)
	case f.PktSize <= 0 || f.PktSize > pkt.MTU:
		return fmt.Errorf("traffic: flow %d packet size %d outside (0,MTU]", f.ID, f.PktSize)
	case f.Bytes < 0:
		return fmt.Errorf("traffic: flow %d has negative size %d", f.ID, f.Bytes)
	case n < 2 && f.Dst == UniformDst:
		return fmt.Errorf("traffic: uniform flow %d needs at least 2 endpoints", f.ID)
	}
	return nil
}

// inject visits the ready flows in flow-index order.
func (g *Generator) inject(now sim.Cycle) {
	for i := g.ready.Next(0); i >= 0; i = g.ready.Next(i + 1) {
		g.ready.Remove(i)
		g.visit(i, now)
	}
	if g.ready.Len() == 0 {
		g.handle.Sleep()
	}
}

// visit runs cycle now of flow i as an every-cycle scan would have: it
// replays the cycles since the last visit on the accumulator with the
// scan's own operations (never acc + k*r where a sum can round: rates
// are inexact floats and the sums differ in the last bit), runs today's
// injection loop unchanged, then schedules the flow's next visit.
func (g *Generator) visit(i int, now sim.Cycle) {
	f := &g.flows[i]
	if f.phase == retired { // the closing event of a flow that finished early
		return
	}
	node := g.nodes[f.Src]
	g.skipped += int64(now - f.seen - 1)
	f.seen = now
	if now >= f.End {
		if f.phase == parked { // unwoken to the end: room drops it from its list
			node.Park(-1)
		}
		f.phase = retired
		return
	}
	g.visits++
	for ; f.last < now; f.last++ {
		if f.step() {
			f.last = now
			break
		}
	}
	for sz := f.pktSize(); f.acc >= float64(sz); sz = f.pktSize() {
		dst := f.Dst
		if dst == UniformDst {
			dst = f.rng.Intn(len(g.nodes) - 1)
			if dst >= f.Src {
				dst++
			}
		}
		// Ask before building: a refused attempt draws no packet id.
		if node.Full(dst, f.Dst != UniformDst) {
			if f.Dst == UniformDst {
				f.phase = hot
				g.ready.Add(i)
			} else {
				f.phase = parked
				g.parked[f.Src] = append(g.parked[f.Src], int32(i))
			}
			return
		}
		p := g.pool.NewData(g.ids, f.Src, dst, f.ID, sz, now)
		if !node.Offer(p) {
			panic(fmt.Sprintf("traffic: node %d refused flow %d after reporting room", f.Src, f.ID))
		}
		f.acc -= float64(sz)
		f.sent += int64(sz)
		if g.hook != nil {
			g.hook(p)
		}
		if f.done() {
			f.phase = retired
			return
		}
	}
	// Accumulating: run the shaper forward to the first cycle it covers a
	// packet (or to End, whose event is armed); acc then holds that cycle's
	// value already and the visit replays nothing. Integral rates (the
	// paper's 100 %) may jump: with every partial sum exact, k steps are k*r.
	sz := float64(f.pktSize())
	if f.whole {
		k := min((int64(sz-f.acc)+int64(f.r)-1)/int64(f.r), int64(f.End-f.last))
		f.acc, f.last = f.acc+float64(k)*f.r, f.last+sim.Cycle(k)
	}
	for ; f.acc < sz && f.last < f.End; f.last++ {
		f.step()
	}
	if f.phase = due; f.last == now+1 {
		g.ready.Add(i)
	} else if f.last < f.End {
		g.eng.At(f.last, f.wake)
	}
}

// room is the nodes' hook: node src popped the full AdVOQ towards dst, so
// the flows parked on it are visited in the next injection phase, the
// first in which a scan's Offer could succeed (the lowest index takes the
// one slot freed, the rest park again).
func (g *Generator) room(src, dst int) {
	keep := g.parked[src][:0]
	for _, i := range g.parked[src] {
		switch f := &g.flows[i]; {
		case f.phase != parked: // retired at End meanwhile
		case f.Dst == dst:
			f.phase = due
			g.ready.Add(int(i))
			g.nodes[src].Park(-1)
			g.handle.Wake()
		default:
			keep = append(keep, i)
		}
	}
	g.parked[src] = keep
}

// Visits returns the visits made and the live-flow-cycles not visited.
func (g *Generator) Visits() (visits, skipped int64) {
	skipped = g.skipped
	for i := range g.flows {
		if f := &g.flows[i]; f.phase != retired && f.seen < g.eng.Now()-1 {
			skipped += int64(g.eng.Now() - 1 - f.seen)
		}
	}
	return g.visits, skipped
}

// DescribeState summarises the sources for diagnostic snapshots: flows
// per state, earliest due cycle, who is parked since when (a lost wake).
func (g *Generator) DescribeState(sim.Cycle) string {
	var n [retired + 1]int
	list, next, when := "", sim.Never, "never"
	for i := range g.flows {
		f := &g.flows[i]
		if n[f.phase]++; f.phase == parked && n[parked] <= 16 {
			list += fmt.Sprintf(" flow%d(%d->%d)@%d", f.ID, f.Src, f.Dst, f.seen)
		} else if f.phase == due {
			next = min(next, f.last)
		}
	}
	if next != sim.Never {
		when = fmt.Sprint(next)
	}
	return fmt.Sprintf("sources: live=%d due=%d parked=%d hot=%d next=%s awake=%v parked since:%s",
		n[due]+n[parked]+n[hot], n[due], n[parked], n[hot], when, g.handle.Awake(), list)
}

// FlowIDs returns the configured flow ids in order.
func (g *Generator) FlowIDs() []int {
	out := make([]int, len(g.flows))
	for i := range g.flows {
		out[i] = g.flows[i].ID
	}
	return out
}
