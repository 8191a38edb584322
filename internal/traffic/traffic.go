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
	"math/rand"
	"sort"

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

	// handle sleeps the generator between flow activation windows.
	handle *sim.TickerHandle

	flows []flowState

	// Flow active set. byStart lists flow indices ordered by (Start,
	// index); opened counts how many of them have been admitted to live,
	// the set of flows whose window has opened and that are neither past
	// End nor finished. A tick admits the newly opened flows, then walks
	// live — in flow-index order, the order of the dense scan it replaces,
	// which packet ids and Offer order depend on.
	byStart []int
	opened  int
	live    sim.ActiveSet
}

type flowState struct {
	Flow
	acc  float64
	sent int64      // bytes emitted so far (finite flows deactivate at Bytes)
	rng  *rand.Rand // only for uniform destinations
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
		if f.PktSize == 0 {
			f.PktSize = pkt.MTU
		}
		if err := validate(f, len(nodes)); err != nil {
			return nil, err
		}
		fs := flowState{Flow: f}
		if f.Dst == UniformDst {
			fs.rng = eng.RNG()
		}
		g.flows = append(g.flows, fs)
	}
	g.start()
	return g, nil
}

// start indexes the flows by window opening and registers the generator
// with its engine's injection phase. Construction-time only.
func (g *Generator) start() {
	g.byStart = make([]int, len(g.flows))
	for i := range g.byStart {
		g.byStart[i] = i
	}
	sort.SliceStable(g.byStart, func(a, b int) bool {
		return g.flows[g.byStart[a]].Start < g.flows[g.byStart[b]].Start
	})
	g.live.Grow(len(g.flows))
	g.handle = g.eng.AddTicker(sim.PhaseInject, sim.TickerFunc(g.inject))
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
		if f.PktSize == 0 {
			f.PktSize = pkt.MTU
		}
		if err := validate(f, len(nodes)); err != nil {
			return nil, err
		}
		s := shardOfNode[f.Src]
		if s < 0 || s >= len(gens) {
			return nil, fmt.Errorf("traffic: flow %d source %d maps to shard %d of %d", f.ID, f.Src, s, len(gens))
		}
		fs := flowState{Flow: f}
		if f.Dst == UniformDst {
			fs.rng = engines[s].RNG()
		}
		gens[s].flows = append(gens[s].flows, fs)
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

// inject runs once per cycle.
func (g *Generator) inject(now sim.Cycle) {
	for ; g.opened < len(g.byStart) && g.flows[g.byStart[g.opened]].Start <= now; g.opened++ {
		g.live.Add(g.byStart[g.opened])
	}
	for i := g.live.Next(0); i >= 0; i = g.live.Next(i + 1) {
		f := &g.flows[i]
		if now >= f.End {
			g.live.Remove(i)
			continue
		}
		f.acc += f.Rate * float64(g.bpc[f.Src])
		// A stalled source does not bank unbounded credit: it saturates
		// at one packet's worth plus one cycle of arrivals.
		max := float64(f.PktSize) + f.Rate*float64(g.bpc[f.Src])
		if f.acc > max {
			f.acc = max
		}
		for sz := f.pktSize(); f.acc >= float64(sz); sz = f.pktSize() {
			dst := f.Dst
			if dst == UniformDst {
				dst = f.rng.Intn(len(g.nodes) - 1)
				if dst >= f.Src {
					dst++
				}
			}
			p := g.pool.NewData(g.ids, f.Src, dst, f.ID, sz, now)
			if !g.nodes[f.Src].Offer(p) {
				g.pool.Release(p)
				break // source stall: retry next cycle
			}
			f.acc -= float64(sz)
			f.sent += int64(sz)
			if g.hook != nil {
				g.hook(p)
			}
			if f.done() {
				g.live.Remove(i)
				break
			}
		}
	}
	// With no live flow every tick is a no-op until the next window
	// opens (finished finite flows no longer count: once every flow is
	// done the generator sleeps for good even if windows remain open), so
	// sleep and arm a wake event at that opening; with no window left,
	// sleep for good. A flow whose last cycle this was is still live here
	// and retires on the next tick, which is the tick that sleeps.
	if g.live.Len() == 0 {
		if g.opened < len(g.byStart) {
			g.handle.SleepUntil(g.flows[g.byStart[g.opened]].Start)
		} else {
			g.handle.Sleep()
		}
	}
}

// FlowIDs returns the configured flow ids in order.
func (g *Generator) FlowIDs() []int {
	out := make([]int, len(g.flows))
	for i := range g.flows {
		out[i] = g.flows[i].ID
	}
	return out
}
