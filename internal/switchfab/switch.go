// Package switchfab implements the input-queued switch of the paper's
// simulation model (Table I): per-input-port RAM organised by a
// pluggable queue discipline (1Q, VOQsw, VOQnet, DBBM or the
// FBICM/CCFIT NFQ+CFQ isolation unit), an iSLIP-scheduled crossbar,
// virtual cut-through forwarding with credit-based flow control, output
// CAMs for congestion-information propagation, and FECN marking at
// output ports in the congestion state.
package switchfab

import (
	"fmt"
	"math/bits"

	"repro/internal/arbiter"
	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// Stats aggregates switch-level counters for the evaluation.
type Stats struct {
	Forwarded      int
	ForwardedBytes int
	Marked         int
	// PortCyclesElided counts the cycles input ports of the awake switch
	// spent cool. Telemetry only: added up when a port heats, not per tick.
	PortCyclesElided int
	// CyclesNapped counts the cycles the switch slept holding packets.
	CyclesNapped int
}

// Switch is one input-queued switch.
type Switch struct {
	eng    *sim.Engine
	p      *core.Params
	id     int
	name   string
	nports int
	xbar   int // crossbar bytes/cycle per port
	route  func(dest int) int
	// lookahead maps (local output port, dest) to the output port the
	// packet will request at the neighbor (OBQA queue assignment).
	lookahead func(out, dest int) int

	in    []*inPort
	out   []*outPort
	islip *arbiter.ISlip
	stats Stats

	// stalledUntil is the fault injector's arbitration freeze: while
	// now < stalledUntil the switch skips arbitration entirely (queues
	// fill, credits stop flowing downstream) — the scripted model of a
	// wedged scheduler. Zero (the default) never stalls.
	stalledUntil sim.Cycle

	// Active sets, one bit per port (hence MaxPorts). The per-cycle ticks
	// visit set bits in ascending port order — the order of the dense
	// scans they replace — and skip everything else.
	//
	// liveIn: input ports whose discipline may need Post/Update/request
	// ticks. Set by ReceivePacket (only Enqueue ends quiescence), cleared
	// by update once disc.Quiescent() — which is by contract the state in
	// which Post, Update and Requests are no-ops.
	// stagedOut: output ports with a non-empty stage. Set when a crossbar
	// transfer lands, cleared by the drain that empties the stage.
	// inflight: crossbar transfers started but not yet landed, all ports.
	// Within liveIn, ticks run only where their answer can have changed:
	// hot ⊆ liveIn: ports whose disc.Post/Update run this cycle. heat sets
	// the bit — before the event it announces mutates the port — on a
	// packet arrival, on start popping from the port, on a non-credit
	// control message at any output (the OutCAM and DemoteRoot feed every
	// input's Post and Requests) and on the port's own deadline; update
	// clears it (the port cools) after a cycle in which the discipline did
	// not act and start did not pop, recording disc.NextDue as the deadline.
	// parked ⊆ liveIn: ports whose last request scan found nothing
	// grantable; the scan skips them. unpark clears the bit on a credit at
	// or a drain freeing a stage slot of an output the port waits on
	// (waitOut[o]: the inputs parked behind o) — the only events that can
	// make a request to o grantable — on heat, and at the end of a cycle
	// the port acted in.
	// acted: this cycle's ports whose Post/Update acted or start popped.
	liveIn, hot, parked, acted uint64
	stagedOut                  uint64
	waitOut                    []uint64
	inflight                   int
	// minDue is no later than the earliest deadline of a cool port (one
	// compare per post), drainDue the first cycle a staged packet can go
	// (drainStaged).
	minDue, drainDue sim.Cycle
	// napAt is the first tick the nap in progress skips (0: not napping).
	// A switch holding packets naps from update to min(minDue, drainDue)
	// when nothing is hot, no stall is on and every unparked live port is
	// crossing the crossbar. wake ends it first: wherever a port heats or
	// leaves parked, on land, on ReceivePacket and on Stall.
	napAt sim.Cycle

	// per-cycle arbitration scratch: the strongest candidate per (input,
	// output), and the iSLIP masks over them — bit i of req[o] says
	// cand[i][o] is this cycle's request, prio[o] the BECN-priority
	// subset. reqOuts marks the outputs with a non-zero req mask, so only
	// those are cleared for the next cycle.
	cand      [][]core.Request
	req, prio []uint64
	reqOuts   uint64

	// Tick handle: the switch sleeps while every input discipline is
	// quiescent and every output stage is empty (nothing queued, nothing
	// crossing the crossbar, no CAM housekeeping pending), and naps.
	h *sim.TickerHandle

	// ref, set by tests only, is called where arbitrate is about to skip
	// parked ports and stages not due; the reference runs that work on the
	// side and fails if it does anything (a cool port's Update: from its own
	// ticker).
	ref func(now sim.Cycle)
}

// MaxPorts is the largest switch New accepts: live-port sets and iSLIP
// request sets are one uint64 bit per port.
const MaxPorts = arbiter.MaxPorts

type inPort struct {
	s         *Switch
	idx       int
	disc      core.QDisc
	busyUntil sim.Cycle
	rr        *arbiter.RoundRobin // among this port's queues for one output
	reqs      []core.Request      // per-cycle scratch

	// The crossbar transfer in flight from this port. busyUntil gates the
	// request scan, so a port launches at most one transfer at a time and
	// a single slot (xferPkt != nil while occupied) replaces a per-launch
	// completion closure; landFn is ip.land bound once at build.
	xferOut *outPort
	xferPkt *pkt.Packet
	xferCFQ int
	landFn  func()

	// Cool since coolAt, until due.
	coolAt, due sim.Cycle
}

type outPort struct {
	s       *Switch
	idx     int
	tx      *link.Half // nil when the port is unconnected
	credits *core.CreditPool
	cam     *core.OutCAM
	mark    *core.MarkState
	// Output stage: a small buffer decoupling the crossbar (which can
	// run faster than the link, Table I: 5 GB/s crossbar over 2.5 GB/s
	// links in Config #1) from link serialization. inflight counts
	// crossbar transfers that have started but not yet landed here;
	// inflightBytes mirrors it in bytes for the conservation ledger.
	stage         [stageCap]staged
	nstaged       int // occupied prefix of stage
	inflight      int
	inflightBytes int
}

type staged struct {
	p   *pkt.Packet
	cfq int
}

// stageCap bounds staged + in-flight packets per output port.
const stageCap = 2

// New builds a switch with nports bidirectional ports. routeFn maps a
// destination endpoint to the local output port. numEndpoints sizes
// VOQnet disciplines. xbarBPC is the crossbar bandwidth in bytes/cycle
// per port (Table I "Crossbar BW"); it bounds how fast a packet moves
// from an input queue to an output stage and therefore how much
// aggregate traffic one input port can forward.
func New(eng *sim.Engine, id int, name string, nports int, p *core.Params, routeFn func(int) int, numEndpoints, xbarBPC int) *Switch {
	if nports <= 0 {
		panic("switchfab: switch needs ports")
	}
	if nports > MaxPorts {
		panic(fmt.Sprintf("switchfab: switch %s has %d ports; the limit is %d (port sets are uint64 masks)", name, nports, MaxPorts))
	}
	if xbarBPC <= 0 {
		panic("switchfab: crossbar bandwidth must be positive")
	}
	s := &Switch{
		eng:    eng,
		p:      p,
		id:     id,
		name:   name,
		nports: nports,
		xbar:   xbarBPC,
		route:  routeFn,
		islip:  arbiter.NewISlip(nports, nports, p.ISlipIters),
	}
	s.in = make([]*inPort, nports)
	s.out = make([]*outPort, nports)
	for i := 0; i < nports; i++ {
		ip := &inPort{s: s, idx: i}
		ip.landFn = ip.land
		ip.disc = core.NewQDisc(p, portEnv{s: s, port: i}, nports, numEndpoints)
		ip.rr = arbiter.NewRoundRobin(ip.disc.QueueCount())
		if iso, ok := ip.disc.(*core.IsolationUnit); ok {
			iso.SetTraceLabel(fmt.Sprintf("%s:p%d", name, i))
		}
		s.in[i] = ip
		s.out[i] = &outPort{
			s:    s,
			idx:  i,
			cam:  core.NewOutCAM(p.NumCFQs),
			mark: core.NewMarkState(p, eng.RNG(), eng, fmt.Sprintf("%s:p%d", name, i)),
		}
	}
	s.cand = make([][]core.Request, nports)
	for i := range s.cand {
		s.cand[i] = make([]core.Request, nports)
	}
	s.req = make([]uint64, nports)
	s.prio = make([]uint64, nports)
	s.waitOut = make([]uint64, nports)
	s.h = eng.AddTicker(sim.PhaseDevice, s.tick)
	return s
}

// tick is the switch's cycle, the port pipeline of the paper's Figs. 3-4
// in order. It reads and writes the switch's own state only; whatever
// reaches another device leaves as an event (DESIGN.md §5).
func (s *Switch) tick(now sim.Cycle) {
	s.post(now)
	s.arbitrate(now)
	s.update(now)
}

// wake puts the switch back on the engine's active list (idempotent),
// ending a nap.
func (s *Switch) wake() {
	s.napped()
	s.napAt = 0
	s.h.Wake()
}

// napped counts the ticks the nap in progress, if any, skipped so far.
func (s *Switch) napped() {
	if now := s.eng.Now(); s.napAt != 0 && now > s.napAt {
		s.stats.CyclesNapped += int(now - s.napAt)
		s.napAt = now
	}
}

// idle reports whether every tick would be a no-op: all input
// disciplines quiescent, no staged or in-flight crossbar transfers.
// Credit and CAM control arrivals are handled inline by ReceiveControl
// and need no ticks, so they do not keep a switch awake.
func (s *Switch) idle() bool {
	return s.liveIn == 0 && s.stagedOut == 0 && s.inflight == 0
}

// ID returns the switch's device id.
func (s *Switch) ID() int { return s.id }

// Name returns the diagnostic name.
func (s *Switch) Name() string { return s.name }

// Stats returns the switch counters, brought up to the current cycle:
// what the nap and the cool ports are owed so far is added first.
func (s *Switch) Stats() *Stats {
	s.napped()
	last := s.eng.Now() - 1
	for cool := s.liveIn &^ s.hot; cool != 0; cool &= cool - 1 {
		if ip := s.in[bits.TrailingZeros64(cool)]; last > ip.coolAt {
			s.stats.PortCyclesElided += int(last - ip.coolAt)
			ip.coolAt = last
		}
	}
	return &s.stats
}

// InputDisc exposes port i's queue discipline (diagnostics, tests).
func (s *Switch) InputDisc(i int) core.QDisc { return s.in[i].disc }

// OutCAM exposes port i's output CAM (diagnostics, tests).
func (s *Switch) OutCAM(i int) *core.OutCAM { return s.out[i].cam }

// MarkState exposes port i's congestion/marking state (diagnostics).
func (s *Switch) MarkState(i int) *core.MarkState { return s.out[i].mark }

// Credits returns output port i's credit balance toward dest (tests).
func (s *Switch) Credits(i, dest int) int { return s.out[i].credits.Avail(dest) }

// AttachLink wires port i: tx is the transmit direction toward the
// neighbor, credits the pool mirroring the neighbor's receive buffers.
func (s *Switch) AttachLink(i int, tx *link.Half, credits *core.CreditPool) {
	if s.out[i].tx != nil {
		panic(fmt.Sprintf("switchfab: %s port %d already attached", s.name, i))
	}
	s.out[i].tx = tx
	s.out[i].credits = credits
}

// SetLookahead installs the next-hop routing oracle used by the OBQA
// discipline. Must be called before traffic arrives; without it OBQA
// degenerates to a single queue.
func (s *Switch) SetLookahead(fn func(out, dest int) int) { s.lookahead = fn }

// PacketReceiver returns the sink for packets arriving at port i.
func (s *Switch) PacketReceiver(i int) link.PacketReceiver { return s.in[i] }

// ControlReceiver returns the sink for control arriving at port i.
func (s *Switch) ControlReceiver(i int) link.ControlReceiver { return s.out[i] }

// post runs the post-processing step of the hot ports, heating first
// those whose deadline has come.
func (s *Switch) post(now sim.Cycle) {
	if s.napAt != 0 {
		s.wake() // the nap ran to its deadline: settle it
	}
	if now >= s.minDue {
		s.minDue = sim.Never
		for cool := s.liveIn &^ s.hot; cool != 0; cool &= cool - 1 {
			i := bits.TrailingZeros64(cool)
			if due := s.in[i].due; due > now {
				s.minDue = min(s.minDue, due)
			} else {
				s.heat(i, now)
			}
		}
	}
	for hot := s.hot; hot != 0; hot &= hot - 1 {
		i := bits.TrailingZeros64(hot)
		if s.in[i].disc.Post(now) {
			s.acted |= 1 << i
		}
	}
}

// heat makes input port i's Post and Update run and its requests be
// scanned again. Every caller heats before it mutates the port: a cool
// port first replays what its skipped Updates stamped (QDisc.Resume).
func (s *Switch) heat(i int, now sim.Cycle) {
	s.wake()
	bit := uint64(1) << i
	if s.liveIn&^s.hot&bit != 0 {
		ip := s.in[i]
		ip.disc.Resume(now)
		s.stats.PortCyclesElided += int(now - 1 - ip.coolAt)
	}
	s.hot |= bit
	s.unpark(bit)
}

// unpark returns the ports in m to the request scan. Unparking a port
// whose requests are still blocked is harmless: the scan parks it again.
func (s *Switch) unpark(m uint64) {
	if m&s.parked != 0 {
		s.wake()
		s.parked &^= m
	}
}

// update runs the housekeeping step of the hot ports, cools those that
// went a cycle without acting, then sleeps the switch when it is provably
// idle (packet arrivals wake it again) or has a nap ahead of it (napAt). A
// port start heated this cycle runs Update without having run Post: cool
// means that was a no-op.
func (s *Switch) update(now sim.Cycle) {
	for hot := s.hot; hot != 0; hot &= hot - 1 {
		i := bits.TrailingZeros64(hot)
		bit := uint64(1) << i
		ip := s.in[i]
		if ip.disc.Update(now) {
			s.acted |= bit
		}
		if ip.disc.Quiescent() {
			s.liveIn, s.hot, s.parked = s.liveIn&^bit, s.hot&^bit, s.parked&^bit
		} else if s.acted&bit == 0 {
			if ip.due = ip.disc.NextDue(now); ip.due > now {
				s.hot &^= bit
				ip.coolAt = now
				s.minDue = min(s.minDue, ip.due)
			}
		}
	}
	// A port that acted stays hot, and the next scan must see what its
	// next Post does to its requests.
	s.unpark(s.acted)
	s.acted = 0
	due := sim.Never
	if !s.idle() {
		if due = min(s.minDue, s.drainDue); s.hot != 0 || due <= now+1 || now+1 < s.stalledUntil {
			return
		}
		for live := s.liveIn &^ s.parked; live != 0; live &= live - 1 {
			if s.in[bits.TrailingZeros64(live)].busyUntil <= now+1 {
				return
			}
		}
		s.napAt = now + 1
	}
	s.h.SleepUntil(due)
}

// arbitrate drains output stages onto their links, then collects
// eligible requests, runs iSLIP, and starts the granted crossbar
// transfers. A port none of whose requests can be granted is parked:
// only a credit at or a stage slot of an output it waits on, or a change
// of the port itself, can make the next scan answer differently.
func (s *Switch) arbitrate(now sim.Cycle) {
	if now < s.stalledUntil {
		return
	}
	if now >= s.drainDue {
		s.drainStaged(now)
	}
	if s.ref != nil {
		s.ref(now)
	}
	for live := s.liveIn &^ s.parked; live != 0; live &= live - 1 {
		i := bits.TrailingZeros64(live)
		ip := s.in[i]
		if ip.busyUntil > now {
			continue
		}
		bit := uint64(1) << i
		var wait uint64 // outputs a blocked request waits on
		grantable := false
		ip.reqs = ip.reqs[:0]
		if ip.disc.UsedBytes() != 0 {
			ip.reqs = ip.disc.Requests(now, ip.reqs)
		}
		for _, r := range ip.reqs {
			op := s.out[r.Out]
			if op.tx == nil {
				continue
			}
			if op.nstaged+op.inflight >= stageCap || op.credits.Avail(r.Pkt.Dst) < r.Pkt.Size {
				wait |= 1 << r.Out
				continue
			}
			grantable = true
			// Keep the strongest candidate per (input, output):
			// priority first, then this input's queue round-robin. A
			// replacement never lowers the priority, so prio bits are
			// only ever set.
			if s.req[r.Out]&bit == 0 || s.better(ip, r, s.cand[i][r.Out]) {
				s.cand[i][r.Out] = r
				s.req[r.Out] |= bit
				if r.Priority {
					s.prio[r.Out] |= bit
				}
				s.reqOuts |= 1 << r.Out
			}
		}
		if !grantable {
			s.parked |= bit
			for ; wait != 0; wait &= wait - 1 {
				s.waitOut[bits.TrailingZeros64(wait)] |= bit
			}
		}
	}
	if s.reqOuts == 0 {
		return
	}
	match := s.islip.Match(s.req, s.prio)
	for outs := s.reqOuts; outs != 0; outs &= outs - 1 {
		o := bits.TrailingZeros64(outs)
		s.req[o], s.prio[o] = 0, 0
	}
	s.reqOuts = 0
	for i, o := range match {
		if o == -1 {
			continue
		}
		s.start(now, s.in[i], s.out[o], s.cand[i][o])
	}
}

// drainStaged offers every non-empty output stage to its link and sets
// drainDue to the first cycle one of them can go: the earliest
// tx.FreeAt() of the outputs still staged — a cycle already past for an
// idle link that is down, which is therefore polled every cycle (nobody
// announces SetDown(false)). A send makes its link busy and nothing lands
// during the phases, so one poll per cycle is all there is to do.
func (s *Switch) drainStaged(now sim.Cycle) {
	s.drainDue = sim.Never
	for outs := s.stagedOut; outs != 0; outs &= outs - 1 {
		op := s.out[bits.TrailingZeros64(outs)]
		op.drain(now)
		if op.nstaged > 0 {
			s.drainDue = min(s.drainDue, op.tx.FreeAt())
		}
	}
}

// drain puts the next staged packet on the wire if the link is idle,
// and returns the inputs waiting for the freed stage slot to the scan.
func (op *outPort) drain(now sim.Cycle) {
	if op.tx == nil || op.nstaged == 0 || !op.tx.Free(now) {
		return
	}
	st := op.stage[0]
	copy(op.stage[:], op.stage[1:op.nstaged])
	op.nstaged--
	op.stage[op.nstaged] = staged{}
	if op.nstaged == 0 {
		op.s.stagedOut &^= 1 << op.idx
	}
	op.tx.Send(now, st.p, st.cfq)
	op.wakeWaiters()
}

// wakeWaiters unparks the inputs parked behind this output.
func (op *outPort) wakeWaiters() {
	op.s.unpark(op.s.waitOut[op.idx])
	op.s.waitOut[op.idx] = 0
}

// better reports whether request a should replace b as input ip's
// candidate for one output: priority first, then the port's queue
// round-robin order (fairness between the NFQ and CFQs sharing an
// output, without advancing the pointer until a queue is served).
func (s *Switch) better(ip *inPort, a, b core.Request) bool {
	if a.Priority != b.Priority {
		return a.Priority
	}
	return ip.rr.Closer(a.QID, b.QID)
}

// start launches one granted crossbar transfer: the packet leaves the
// input queue, crosses the crossbar in size/xbar cycles, and lands in
// the output stage for link serialization.
func (s *Switch) start(now sim.Cycle, ip *inPort, op *outPort, r core.Request) {
	s.heat(ip.idx, now)
	s.acted |= 1 << ip.idx // the pop changes what the next Post sees
	p := ip.disc.Pop(r.QID)
	if p != r.Pkt {
		panic(fmt.Sprintf("switchfab: %s popped %v, granted %v", s.name, p, r.Pkt))
	}
	ip.rr.Served(r.QID)
	op.credits.Take(p.Dst, p.Size)
	if op.mark.MaybeMark(p) {
		s.stats.Marked++
	}
	xfer := sim.Cycle((p.Size + s.xbar - 1) / s.xbar)
	ip.busyUntil = now + xfer
	if ip.xferPkt != nil {
		panic(fmt.Sprintf("switchfab: %s port %d launched %v with %v still crossing the crossbar", s.name, ip.idx, p, ip.xferPkt))
	}
	ip.xferOut, ip.xferPkt, ip.xferCFQ = op, p, r.DirectCFQ
	op.inflight++
	op.inflightBytes += p.Size
	s.inflight++
	s.eng.At(now+xfer, ip.landFn)
	s.stats.Forwarded++
	s.stats.ForwardedBytes += p.Size
	// The packet left this input port's RAM: return credit upstream.
	// Port ip.idx's transmit half reaches the upstream neighbor.
	if up := s.out[ip.idx].tx; up != nil {
		//lint:ignore hotpath-alloc link.Control is a value struct copied into the link's control ring; no heap allocation
		up.SendControl(now, link.Control{Kind: link.Credit, Bytes: p.Size, Dest: p.Dst})
	}
}

// land completes this port's crossbar transfer: the packet enters its
// output stage for link serialization.
func (ip *inPort) land() {
	s, op, p := ip.s, ip.xferOut, ip.xferPkt
	ip.xferOut, ip.xferPkt = nil, nil
	op.inflight--
	op.inflightBytes -= p.Size
	s.inflight--
	op.stage[op.nstaged] = staged{p: p, cfq: ip.xferCFQ}
	op.nstaged++
	s.stagedOut |= 1 << op.idx
	s.drainDue = min(s.drainDue, op.tx.FreeAt())
	s.wake() // the staged packet needs drain ticks, the freed port a scan
}

// Stall freezes arbitration (grants, drains, crossbar launches) for d
// cycles from now — the fault model of a wedged scheduler. Overlapping
// stalls extend to the farthest horizon. Arrivals are still admitted
// (they only queue), so buffers fill and backpressure propagates
// upstream exactly as a real hung switch would cause.
func (s *Switch) Stall(d sim.Cycle) {
	if s.napAt != 0 {
		s.wake() // a nap never spans a stall: the contract napIdle checks
	}
	if until := s.eng.Now() + d; until > s.stalledUntil {
		s.stalledUntil = until
	}
}

// StalledUntil returns the cycle arbitration resumes (0 = never stalled).
func (s *Switch) StalledUntil() sim.Cycle { return s.stalledUntil }

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return s.nports }

// TxHalf returns port i's transmit direction (nil when unconnected).
func (s *Switch) TxHalf(i int) *link.Half { return s.out[i].tx }

// CreditPoolAt returns port i's credit pool toward its neighbor (nil
// when unconnected) — the invariant checker bounds it by capacity.
func (s *Switch) CreditPoolAt(i int) *core.CreditPool { return s.out[i].credits }

// BufferedBytes returns every byte the switch currently holds: input
// RAM, crossbar transfers in flight, and output stages. This is the
// switch's term in the packet-conservation ledger.
func (s *Switch) BufferedBytes() int {
	b := 0
	for _, ip := range s.in {
		b += ip.disc.UsedBytes()
	}
	for _, op := range s.out {
		b += op.inflightBytes
		for _, st := range op.stage[:op.nstaged] {
			b += st.p.Size
		}
	}
	return b
}

// DescribeBlocked reports, one line per queued input port, why its
// arbitration requests cannot be granted right now — the heart of the
// watchdog's deadlock diagnostic. An empty slice means nothing is
// queued anywhere on the switch.
func (s *Switch) DescribeBlocked(now sim.Cycle) []string {
	var out []string
	stalled := ""
	if now < s.stalledUntil {
		stalled = fmt.Sprintf(" [switch stalled until %d]", s.stalledUntil)
	}
	for i, ip := range s.in {
		if ip.disc.UsedBytes() == 0 {
			continue
		}
		line := fmt.Sprintf("%s p%d in: %dB queued%s", s.name, i, ip.disc.UsedBytes(), stalled)
		if ip.busyUntil > now {
			line += fmt.Sprintf("; crossbar busy until %d", ip.busyUntil)
		}
		reqs := ip.disc.Requests(now, nil)
		for _, r := range reqs {
			line += "; " + s.describeRequest(now, r)
		}
		if len(reqs) == 0 {
			line += "; no eligible request (queues stopped or heads gated)"
		}
		out = append(out, line)
	}
	return out
}

// describeRequest explains one candidate's fate against its output.
func (s *Switch) describeRequest(now sim.Cycle, r core.Request) string {
	op := s.out[r.Out]
	head := fmt.Sprintf("head %s wants out%d:", r.Pkt, r.Out)
	switch {
	case op.tx == nil:
		return head + " output unconnected"
	case op.nstaged+op.inflight >= stageCap:
		return head + " output stage full"
	case op.credits.Avail(r.Pkt.Dst) < r.Pkt.Size:
		return fmt.Sprintf("%s no credits (have %d, need %d)", head, op.credits.Avail(r.Pkt.Dst), r.Pkt.Size)
	case op.tx.Down():
		return head + " link down"
	case !op.tx.Free(now):
		return fmt.Sprintf("%s link busy until %d", head, op.tx.FreeAt())
	default:
		return head + " grantable"
	}
}

// ReceivePacket implements link.PacketReceiver for an input port.
func (ip *inPort) ReceivePacket(p *pkt.Packet, cfq int) {
	ip.s.heat(ip.idx, ip.s.eng.Now()) // wakes the switch
	ip.s.liveIn |= 1 << ip.idx
	ip.disc.Enqueue(p, cfq)
}

// ReceiveControl implements link.ControlReceiver for an output port:
// credits and the downstream CFQ protocol.
func (op *outPort) ReceiveControl(m link.Control) {
	if m.Kind == link.Credit {
		op.s.RefundCredit(op.idx, m.Dest, m.Bytes)
		return
	}
	// The OutCAM (and DemoteRoot below) feed the Post and the Requests of
	// every input port, whichever output the message arrived at.
	for live := op.s.liveIn; live != 0; live &= live - 1 {
		op.s.heat(bits.TrailingZeros64(live), op.s.eng.Now())
	}
	op.cam.Handle(m)
	if m.Kind == link.CFQAlloc {
		// The congested point is now known to be at least one hop
		// below: input CFQs feeding this output stop being tree roots.
		for _, ip := range op.s.in {
			if iso, ok := ip.disc.(*core.IsolationUnit); ok {
				iso.DemoteRoot(op.idx, m.Dests)
			}
		}
	}
}

// RefundCredit returns bytes of credit towards dest to output port i's
// pool and unparks the inputs waiting on it: the control channel's
// returns and the fault path's refund of a dropped packet alike.
func (s *Switch) RefundCredit(i, dest, bytes int) {
	s.out[i].credits.Give(dest, bytes)
	s.out[i].wakeWaiters()
}

// portEnv adapts a switch port to core.PortEnv.
type portEnv struct {
	s    *Switch
	port int
}

func (e portEnv) Route(dest int) int { return e.s.route(dest) }

func (e portEnv) OutLine(out, dest int) (bool, int, bool) {
	return e.s.out[out].cam.Lookup(dest)
}

func (e portEnv) OutCredits(out, dest int) int {
	op := e.s.out[out]
	if op.tx == nil {
		return 0
	}
	return op.credits.Avail(dest)
}

func (e portEnv) NotifyUpstream(m link.Control) {
	if tx := e.s.out[e.port].tx; tx != nil {
		tx.SendControl(e.s.eng.Now(), m)
	}
}

func (e portEnv) MarkCrossed(out int, above bool) {
	e.s.out[out].mark.Crossed(above)
}

func (e portEnv) Lookahead(out, dest int) int {
	if e.s.lookahead == nil {
		return 0
	}
	return e.s.lookahead(out, dest)
}
