// Package endnode models the paper's end nodes: the Input Adapter (IA)
// of Fig. 2 — per-destination admittance queues (AdVOQs), an output
// buffer organised like a switch input port (NFQ + CFQs + CAM under
// FBICM/CCFIT), and the injection-throttling structures (CCT, CCTI,
// Timer, LTI) — plus the sink side that consumes packets, returns
// credits, and answers FECN-marked packets with BECNs.
package endnode

import (
	"fmt"

	"repro/internal/arbiter"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Stats aggregates per-node counters.
type Stats struct {
	Offered        int // packets accepted into AdVOQs
	OfferedBytes   int
	Rejected       int // traffic-generator packets refused (AdVOQ full)
	Sent           int // packets put on the wire
	SentBytes      int
	Delivered      int // packets consumed by the sink
	DeliveredBytes int
	FECNSeen       int // FECN-marked deliveries
	BECNsSent      int
	BECNsReceived  int
	ThrottleStalls int // AdVOQ head blocked by the IRD gate
	// CyclesElided counts the awake node's skipped cycles (skipUntil).
	CyclesElided int
}

// DeliverHook observes every sink delivery (metrics wiring).
type DeliverHook func(p *pkt.Packet, now sim.Cycle)

// Node is one endpoint: traffic source (IA) and traffic sink.
type Node struct {
	eng          *sim.Engine
	p            *core.Params
	id           int
	numEndpoints int
	ids          *pkt.IDGen
	pool         *pkt.Pool // packet free-list (nil = plain allocation)

	// Injection side.
	advoqs    []*buffer.Queue
	advoqRR   *arbiter.RoundRobin
	disc      core.QDisc
	perDest   core.DestOccupancy // disc's per-destination view; nil when its RAM is shared
	outRR     *arbiter.RoundRobin
	throttler *core.Throttler
	tx        *link.Half
	credits   *core.CreditPool
	outCAM    *core.OutCAM
	pending   *buffer.Queue  // BECNs awaiting output-buffer space
	lastBECN  []sim.Cycle    // per source: last BECN sent (pacing)
	occupied  sim.ActiveSet  // AdVOQs currently holding packets
	reqs      []core.Request // per-cycle arbitration scratch

	// pausedUntil is the fault injector's injection freeze: while
	// now < pausedUntil the node sends nothing (the sink keeps
	// consuming — a paused host still drains its receive side).
	pausedUntil sim.Cycle

	// Tick handle: the node sleeps (is skipped by the engine) while it
	// provably has nothing to do — no queued packets, no pending BECNs.
	h *sim.TickerHandle

	// A node that holds work it cannot move skips instead: after a cycle
	// in which its tick did nothing (acted), update sets skipUntil to the
	// first cycle time alone changes that (nextDue) and sleeps until then.
	// Everything else that can change it calls resume first: an accepted
	// Offer, a BECN sent or received, a control message, a CCTI_Timer
	// expiry, Pause, a credit refund. quietAt is the cycle the skip (or the
	// last settle) follows; stalled, whether that cycle's post counted a
	// ThrottleStall.
	skipUntil, quietAt sim.Cycle
	acted, stalled     bool

	// Stalled sources park instead of offering every cycle: parkedN of
	// them wait on full AdVOQs, room tells their generator of every pop
	// meanwhile, and each is owed one Rejected per injection phase, counted
	// through rejAt.
	parkedN int
	rejAt   sim.Cycle
	room    func(src, dest int)

	// iaParams is the stable copy the output-buffer discipline points at
	// (its RAM size and organisation differ from the switch port's).
	iaParams core.Params

	onDeliver DeliverHook
	stats     Stats
}

// New builds a node. ids must be the network-wide packet id generator;
// pool is the network's packet free-list (nil to allocate plainly).
// Wiring (AttachLink) happens afterwards.
func New(eng *sim.Engine, id int, p *core.Params, numEndpoints int, ids *pkt.IDGen, pool *pkt.Pool) *Node {
	n := &Node{
		eng:          eng,
		p:            p,
		id:           id,
		numEndpoints: numEndpoints,
		ids:          ids,
		pool:         pool,
		advoqs:       make([]*buffer.Queue, numEndpoints),
		advoqRR:      arbiter.NewRoundRobin(numEndpoints),
		outCAM:       core.NewOutCAM(p.NumCFQs),
		pending:      buffer.NewQueue("becn", nil),
		rejAt:        -1,
	}
	n.occupied.Grow(numEndpoints)
	for i := range n.advoqs {
		n.advoqs[i] = buffer.NewQueue(fmt.Sprintf("advoq%d", i), nil)
	}
	n.iaParams = p.IAParams()
	n.disc = core.NewQDisc(&n.iaParams, nodeEnv{n}, 1, numEndpoints)
	if iso, ok := n.disc.(*core.IsolationUnit); ok {
		iso.SetTraceLabel(fmt.Sprintf("node%d", id))
	}
	n.perDest, _ = n.disc.(core.DestOccupancy)
	n.outRR = arbiter.NewRoundRobin(n.disc.QueueCount())
	if p.ThrottlingEnabled {
		n.throttler = core.NewThrottler(eng, p, numEndpoints)
		n.throttler.SetTraceLabel(fmt.Sprintf("node%d", id))
		n.throttler.OnExpire = n.resume
	}
	n.h = eng.AddTicker(sim.PhaseDevice, n.tick)
	return n
}

// tick is the node's cycle: the injection side's pipeline in order. Like
// a switch's it touches the node's own state only (DESIGN.md §5).
func (n *Node) tick(now sim.Cycle) {
	n.post(now)
	n.arbitrate(now)
	n.update(now)
}

// wake puts the node back on the engine's active list (idempotent).
func (n *Node) wake() { n.h.Wake() }

// ID returns the endpoint id.
func (n *Node) ID() int { return n.id }

// Stats returns the node counters, brought up to the current cycle.
func (n *Node) Stats() *Stats {
	n.settle()
	return &n.stats
}

// settle accounts for the cycles a skip in progress has skipped since
// quietAt: state is constant, so each repeats that cycle's ThrottleStall.
func (n *Node) settle() {
	n.settleRejected(n.eng.Now() - 1)
	if last := n.eng.Now() - 1; n.skipUntil != 0 && last > n.quietAt {
		elided := int(last - n.quietAt)
		n.stats.CyclesElided += elided
		if n.stalled {
			n.stats.ThrottleStalls += elided
		}
		n.quietAt = last
	}
}

// resume ends a skip, if one is in progress. Callers invoke it before
// they mutate the node, so the output buffer first replays what its
// skipped Updates would have stamped (QDisc.Resume).
func (n *Node) resume() {
	if n.skipUntil != 0 {
		n.settle()
		n.skipUntil = 0
		n.disc.Resume(n.eng.Now())
		n.wake()
	}
}

// Throttler exposes the CCT machinery (nil when throttling is off).
func (n *Node) Throttler() *core.Throttler { return n.throttler }

// Disc exposes the IA output-buffer discipline (tests, diagnostics).
func (n *Node) Disc() core.QDisc { return n.disc }

// SetDeliverHook registers the metrics observer for sink deliveries.
func (n *Node) SetDeliverHook(h DeliverHook) { n.onDeliver = h }

// DeliverHook returns the currently registered observer, so harnesses
// can chain a recorder in front of it. Chaining via this getter (rather
// than assuming which collector is installed) keeps the hook shard-local
// under the partitioned engine.
func (n *Node) DeliverHook() DeliverHook { return n.onDeliver }

// AttachLink wires the node's uplink: tx is the transmit direction
// toward the switch, credits the pool mirroring the switch input
// port's receive memory.
func (n *Node) AttachLink(tx *link.Half, credits *core.CreditPool) {
	if n.tx != nil {
		panic(fmt.Sprintf("endnode: node %d already attached", n.id))
	}
	n.tx = tx
	n.credits = credits
}

// SetRoomHook registers the source side's wake-up: fn(node id, dest)
// runs at every AdVOQ pop while sources are parked on the node.
func (n *Node) SetRoomHook(fn func(src, dest int)) { n.room = fn }

// Full is a source's question before it builds a packet: would Offer
// refuse one for dest? A refusal is counted as Offer counts it — at once,
// or with park set by parking the source: it then owes this cycle's
// refusal and one per cycle until it leaves again (Park).
func (n *Node) Full(dest int, park bool) bool {
	if n.advoqs[dest].Len() < n.p.AdVOQCap {
		return false
	}
	if park {
		n.Park(1)
	} else {
		n.stats.Rejected++
	}
	return true
}

// Park parks one source (by = 1, in the injection phase that refused it)
// or releases one (-1: woken by the room hook, or its window closed).
func (n *Node) Park(by int) {
	n.settleRejected(n.eng.Now() - 1)
	n.parkedN += by
}

// ParkedSources returns how many sources wait for room on this node.
func (n *Node) ParkedSources() int { return n.parkedN }

// settleRejected counts the refusals parked sources are owed for the
// injection phases up to cycle upTo (never backwards: a read in the
// cycle a source parked sees that cycle's refusal one cycle later).
func (n *Node) settleRejected(upTo sim.Cycle) {
	if upTo > n.rejAt {
		n.stats.Rejected += n.parkedN * int(upTo-n.rejAt)
		n.rejAt = upTo
	}
}

// Offer admits a traffic-generator packet into its AdVOQ. It reports
// false (source stall) when the AdVOQ is full.
func (n *Node) Offer(p *pkt.Packet) bool {
	if p.Dst < 0 || p.Dst >= n.numEndpoints || p.Dst == n.id {
		panic(fmt.Sprintf("endnode: node %d offered packet with bad dest %d", n.id, p.Dst))
	}
	q := n.advoqs[p.Dst]
	if n.Full(p.Dst, false) {
		return false
	}
	n.resume()
	q.Push(p)
	n.occupied.Add(p.Dst)
	n.stats.Offered++
	n.stats.OfferedBytes += p.Size
	n.wake()
	return true
}

// AdVOQLen returns the depth of the admittance queue for dest (tests).
func (n *Node) AdVOQLen(dest int) int { return n.advoqs[dest].Len() }

// Pause freezes the node's transmit side for d cycles from now — the
// fault model of a hung host. Overlapping pauses extend to the farthest
// horizon. The sink side keeps consuming and returning credits.
func (n *Node) Pause(d sim.Cycle) {
	n.resume()
	if until := n.eng.Now() + d; until > n.pausedUntil {
		n.pausedUntil = until
	}
}

// PausedUntil returns the cycle injection resumes (0 = never paused).
func (n *Node) PausedUntil() sim.Cycle { return n.pausedUntil }

// CreditPool returns the node's uplink credit pool (nil before wiring).
func (n *Node) CreditPool() *core.CreditPool { return n.credits }

// TxHalf returns the node's transmit direction (nil before wiring).
func (n *Node) TxHalf() *link.Half { return n.tx }

// BufferedBytes returns every byte the node's injection side holds:
// AdVOQs, the IA output buffer, and pending BECNs. This is the node's
// term in the packet-conservation ledger (the sink holds nothing —
// deliveries are consumed on arrival).
func (n *Node) BufferedBytes() int {
	b := n.disc.UsedBytes()
	// Only occupied AdVOQs hold bytes; on a 512-node fabric the audit
	// would otherwise visit 512 x 512 queues to find a few hundred.
	for i := n.occupied.Next(0); i >= 0; i = n.occupied.Next(i + 1) {
		b += n.advoqs[i].Bytes()
	}
	return b + n.pending.Bytes()
}

// DescribeState summarises the node's injection side for diagnostic
// snapshots: non-empty AdVOQs, output-buffer fill, throttling state.
func (n *Node) DescribeState(now sim.Cycle) string {
	s := fmt.Sprintf("node%d:", n.id)
	if now < n.pausedUntil {
		s += fmt.Sprintf(" [paused until %d]", n.pausedUntil)
	}
	if n.skipUntil == sim.Never {
		s += " [asleep until an event]"
	} else if now < n.skipUntil {
		s += fmt.Sprintf(" [asleep until %d]", n.skipUntil)
	}
	if n.parkedN > 0 {
		s += fmt.Sprintf(" [%d sources parked]", n.parkedN)
	}
	for d, q := range n.advoqs {
		if q.Len() > 0 {
			s += fmt.Sprintf(" advoq[%d]=%dp/%dB", d, q.Len(), q.Bytes())
			if n.throttler != nil && n.throttler.CCTI(d) > 0 {
				s += fmt.Sprintf("(ccti=%d)", n.throttler.CCTI(d))
			}
		}
	}
	s += fmt.Sprintf(" out=%dB pendingBECN=%d", n.disc.UsedBytes(), n.pending.Len())
	if n.credits != nil && n.tx != nil {
		s += fmt.Sprintf(" uplink(down=%v)", n.tx.Down())
	}
	return s
}

// post drains pending BECNs into the output buffer, then moves one
// AdVOQ head past the throttling gate (IRD/LTI, Section III-D), then
// runs the output buffer's post-processing.
func (n *Node) post(now sim.Cycle) {
	n.resume() // a skip that ran to its deadline ends here
	for h := n.pending.Head(); h != nil && n.disc.Fits(h.Size); h = n.pending.Head() {
		n.disc.Enqueue(n.pending.Pop(), -1)
		n.acted = true
	}
	// Keep the output stage shallow so packets wait in per-destination
	// AdVOQs where the throttling gate can still reorder service.
	n.stalled = false
	if n.occupied.Len() > 0 && n.stageHasRoom() {
		if i := n.pickAdVOQ(now); i >= 0 {
			p := n.advoqs[i].Pop()
			if n.advoqs[i].Empty() {
				n.occupied.Remove(i)
			}
			if n.parkedN > 0 {
				// Parked sources were refused this cycle too; those the
				// hook wakes offer for themselves again from the next.
				n.settleRejected(now)
				n.room(n.id, i)
			}
			n.disc.Enqueue(p, -1)
			if n.throttler != nil {
				n.throttler.Injected(i, now)
			}
			n.acted = true
		}
	}
	n.acted = n.disc.Post(now) || n.acted
}

// stagingLimit bounds the output-buffer fill the IA aims for: enough to
// keep the link busy, small enough that throttling acts promptly.
func (n *Node) stagingLimit() int {
	limit := 4 * pkt.MTU
	if limit > n.p.IARAM {
		limit = n.p.IARAM
	}
	return limit
}

// stageHasRoom gates the AdVOQ scan: with a shared output buffer, a
// full staging budget blocks every destination alike, so the scan can
// be skipped wholesale (per-destination buffers are gated per queue in
// pickAdVOQ instead).
func (n *Node) stageHasRoom() bool {
	return n.perDest != nil || n.disc.UsedBytes() < n.stagingLimit()
}

// pickAdVOQ chooses the next admittance queue to serve: round-robin
// over the occupied destinations (from the pointer to the end, then
// wrapped), skipping destinations whose share of the staging budget is
// already used, queues whose IRD has not elapsed, and heads the output
// buffer cannot admit.
func (n *Node) pickAdVOQ(now sim.Cycle) int {
	stalled := false
	ptr, wrapped := n.advoqRR.Pointer(), false
	for i := n.occupied.Next(ptr); ; i = n.occupied.Next(i + 1) {
		if i < 0 && !wrapped {
			i, wrapped = n.occupied.Next(0), true
		}
		if i < 0 || (wrapped && i >= ptr) {
			break
		}
		// Per-destination output queues: stage at most one packet per
		// destination so blocked destinations cannot hoard.
		if n.perDest != nil && n.perDest.DestBytes(i) > 0 {
			continue
		}
		if n.throttler != nil && !n.throttler.MayInject(i, now) {
			stalled = true
			continue
		}
		if n.disc.Fits(n.advoqs[i].Head().Size) {
			n.advoqRR.Served(i)
			return i
		}
	}
	if stalled {
		n.stats.ThrottleStalls++
	}
	n.stalled = stalled
	return -1
}

// arbitrate serves the output buffer onto the uplink: BECNs first, then
// round-robin among the queues with eligible heads.
func (n *Node) arbitrate(now sim.Cycle) {
	if now < n.pausedUntil {
		return
	}
	if n.tx == nil || !n.tx.Free(now) || n.disc.UsedBytes() == 0 {
		return
	}
	n.reqs = n.disc.Requests(now, n.reqs[:0])
	best := -1
	for idx, r := range n.reqs {
		if r.Pkt.Size > n.credits.Avail(r.Pkt.Dst) {
			continue
		}
		if best == -1 || (r.Priority && !n.reqs[best].Priority) ||
			(r.Priority == n.reqs[best].Priority && n.outRR.Closer(r.QID, n.reqs[best].QID)) {
			best = idx
		}
	}
	if best == -1 {
		return
	}
	r := n.reqs[best]
	p := n.disc.Pop(r.QID)
	if p != r.Pkt {
		panic(fmt.Sprintf("endnode: node %d popped %v, selected %v", n.id, p, r.Pkt))
	}
	n.outRR.Served(r.QID)
	n.credits.Take(p.Dst, p.Size)
	n.tx.Send(now, p, r.DirectCFQ)
	n.stats.Sent++
	n.stats.SentBytes += p.Size
	n.acted = true
}

// update runs the output buffer housekeeping, then sleeps the node when
// it is provably idle: no staged AdVOQ packets, no pending BECNs, and an
// empty, fully deallocated output buffer. Every admission path (Offer,
// BECN generation) wakes it again.
func (n *Node) update(now sim.Cycle) {
	acted := n.disc.Update(now) || n.acted
	n.acted = false
	if n.occupied.Len() == 0 && n.pending.Empty() && n.disc.Quiescent() {
		n.h.Sleep()
	} else if !acted {
		if due := n.nextDue(now); due > now+1 {
			n.skipUntil, n.quietAt = due, now
			n.h.SleepUntil(due)
		}
	}
}

// nextDue returns the first cycle after the quiet cycle now at which a
// tick could do something with no event in between: the uplink falling
// idle, a closed IRD gate opening, the output buffer's own deadline, a
// pause running out. Nobody announces a downed uplink's return: polled.
func (n *Node) nextDue(now sim.Cycle) sim.Cycle {
	if n.tx == nil || n.tx.Down() {
		return now + 1
	}
	due := n.disc.NextDue(now)
	if at := n.tx.FreeAt(); at > now {
		due = min(due, at)
	}
	if n.pausedUntil > now {
		due = min(due, n.pausedUntil)
	}
	// Only a post that counted a stall met a closed IRD gate; an open
	// one stays open until the CCTI changes, which resumes.
	if n.stalled {
		for i := n.occupied.Next(0); i >= 0; i = n.occupied.Next(i + 1) {
			if at := n.throttler.NextInject(i); at > now {
				due = min(due, at)
			}
		}
	}
	return due
}

// ReceivePacket implements link.PacketReceiver: the sink. Packets are
// consumed immediately (the endpoint link, not the node, is the
// bottleneck in every evaluated scenario) and their buffer space is
// returned as credit at once. FECN-marked deliveries trigger a BECN
// back to the packet's source; received BECNs drive the throttler.
func (n *Node) ReceivePacket(p *pkt.Packet, _ int) {
	now := n.eng.Now()
	n.tx.SendControl(now, link.Control{Kind: link.Credit, Bytes: p.Size, Dest: p.Dst})
	if p.Kind == pkt.BECN {
		n.stats.BECNsReceived++
		if n.throttler != nil {
			n.resume()
			n.throttler.OnBECN(p.CongDst)
		}
		n.pool.Release(p) // BECN consumed: nothing downstream holds it
		return
	}
	if p.Dst != n.id {
		panic(fmt.Sprintf("endnode: node %d received packet for %d (misroute)", n.id, p.Dst))
	}
	p.Delivered = now
	n.stats.Delivered++
	n.stats.DeliveredBytes += p.Size
	if p.FECN {
		n.stats.FECNSeen++
		if n.p.ThrottlingEnabled && n.becnDue(p.Src, now) {
			n.resume()
			n.pending.Push(n.pool.NewBECN(n.ids, n.id, p.Src, n.id, now))
			n.stats.BECNsSent++
			n.wake() // the pending BECN needs post ticks to drain
		}
	}
	if n.onDeliver != nil {
		n.onDeliver(p, now)
	}
	n.pool.Release(p) // sunk: metrics hook above was the last reader
}

// becnDue applies BECN pacing: at most one notification per source per
// BECNPacing interval (see core.Params.BECNPacing).
func (n *Node) becnDue(src int, now sim.Cycle) bool {
	if n.p.BECNPacing <= 0 {
		return true
	}
	if n.lastBECN == nil {
		n.lastBECN = make([]sim.Cycle, n.numEndpoints)
		for i := range n.lastBECN {
			n.lastBECN[i] = -1 << 30
		}
	}
	if now-n.lastBECN[src] < n.p.BECNPacing {
		return false
	}
	n.lastBECN[src] = now
	return true
}

// ReceiveControl implements link.ControlReceiver: credits and the CFQ
// protocol from the switch input port one hop downstream.
func (n *Node) ReceiveControl(m link.Control) {
	if m.Kind == link.Credit {
		n.RefundCredit(m.Dest, m.Bytes)
		return
	}
	n.resume()
	n.outCAM.Handle(m)
	if m.Kind == link.CFQAlloc {
		if iso, ok := n.disc.(*core.IsolationUnit); ok {
			iso.DemoteRoot(0, m.Dests)
		}
	}
}

// RefundCredit returns bytes of uplink credit towards dest and ends a
// skip: the control channel's returns and the fault path's refund alike.
func (n *Node) RefundCredit(dest, bytes int) {
	n.resume()
	n.credits.Give(dest, bytes)
}

// nodeEnv adapts the node to core.PortEnv for its output buffer: a
// single uplink (output 0), the uplink's OutCAM, no upstream hop to
// notify, and no marking at IAs.
type nodeEnv struct{ n *Node }

func (e nodeEnv) Route(int) int { return 0 }
func (e nodeEnv) OutLine(_, dest int) (bool, int, bool) {
	return e.n.outCAM.Lookup(dest)
}
func (e nodeEnv) OutCredits(_, dest int) int {
	if e.n.credits == nil {
		return 0
	}
	return e.n.credits.Avail(dest)
}

// Lookahead at an IA is the switch input port's route for dest — but
// the IA output disciplines never use OBQA, so 0 suffices.
func (e nodeEnv) Lookahead(_, _ int) int      { return 0 }
func (e nodeEnv) NotifyUpstream(link.Control) {}
func (e nodeEnv) MarkCrossed(int, bool)       {}
