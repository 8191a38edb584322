package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// PortEnv is what a queue discipline needs from its host (a switch
// input port or an input adapter's output stage): routing, visibility
// of the egress-side CAM state, the upstream control channel, and the
// congestion-state bookkeeping of output ports.
type PortEnv interface {
	// Route returns the local output port for a destination endpoint.
	Route(dest int) int
	// OutLine queries the output-port CAM at `out` for a line covering
	// dest: whether the downstream CFQ is stopped and its index.
	OutLine(out, dest int) (stopped bool, downCFQ int, ok bool)
	// OutCredits returns the credits currently available at output
	// port `out` towards dest. Detection uses it for the root test: a
	// port is the root of a congestion tree only if it can forward
	// (has credits) — otherwise the congested point is further down.
	OutCredits(out, dest int) int
	// Lookahead returns the output port a packet for dest will request
	// at the neighbor reached through local output `out` (0 when the
	// neighbor is an endpoint). OBQA assigns queues by it.
	Lookahead(out, dest int) int
	// NotifyUpstream sends a control message to the upstream hop
	// feeding this port (credits travel separately; this carries the
	// CFQ allocation/Stop/Go/deallocation protocol).
	NotifyUpstream(m link.Control)
	// MarkCrossed reports a root-queue High/Low threshold crossing for
	// output port `out`, driving its congestion state.
	MarkCrossed(out int, above bool)
}

// Request is one arbitration candidate emitted by a discipline: the
// head packet of queue QID wants output port Out.
type Request struct {
	QID       int
	Out       int
	Pkt       *pkt.Packet
	DirectCFQ int  // downstream CFQ for direct CFQ-to-CFQ delivery, -1
	Priority  bool // BECN transmission priority
}

// DiscStats counts discipline-level events for the evaluation.
type DiscStats struct {
	Detections      int // congestion detections (CFQ allocations by local detection)
	LazyAllocs      int // CFQ allocations triggered by downstream propagation
	CAMExhausted    int // congested head seen while no CFQ/CAM line was free
	Deallocs        int // CFQ deallocations
	PostMoves       int // packets moved NFQ -> CFQ
	StopsSent       int
	GoesSent        int
	MaxCFQsInUse    int
	DirectArrivals  int // packets delivered straight into a CFQ
	MisroutedDirect int // direct-CFQ arrivals whose line had been recycled
}

// QDisc is a port queue organisation. Implementations: oneQ, voqSw,
// voqNet, dbbm (this file) and IsolationUnit (isolation.go).
type QDisc interface {
	// Fits reports whether a packet of the given size can be admitted
	// (credit check performed by the upstream sender's mirror counter;
	// Fits is used for local injection admission).
	Fits(size int) bool
	// Enqueue admits an arriving packet; cfq >= 0 targets a specific
	// CFQ (direct CFQ-to-CFQ forwarding), -1 the normal path.
	Enqueue(p *pkt.Packet, cfq int)
	// Post runs per-cycle post-processing: congested-packet moves,
	// congestion detection, CAM maintenance.
	Post(now sim.Cycle)
	// Requests appends this cycle's arbitration candidates to buf and
	// returns the extended slice. Hosts pass their own scratch (reset to
	// length 0) so enumeration allocates nothing per cycle.
	Requests(now sim.Cycle, buf []Request) []Request
	// Pop removes and returns the head of queue qid.
	Pop(qid int) *pkt.Packet
	// Update runs end-of-cycle housekeeping: Stop/Go transitions,
	// deallocation, congestion-state crossings.
	Update(now sim.Cycle)
	// UsedBytes returns the RAM occupancy.
	UsedBytes() int
	// Quiescent reports whether skipping this discipline's Post/Update
	// ticks would be a no-op: no buffered bytes and no deferred
	// housekeeping (allocated CAM lines awaiting hold-down, congestion
	// state left to clear). Hosts use it to sleep idle ports.
	Quiescent() bool
	// Capacity returns the RAM size in bytes.
	Capacity() int
	// QueueCount returns the number of queues (diagnostics).
	QueueCount() int
	// Stats exposes event counters.
	Stats() *DiscStats
}

// NewQDisc builds the discipline selected by p.Disc for a port with
// nOut local output ports in a network of numEndpoints endpoints.
func NewQDisc(p *Params, env PortEnv, nOut, numEndpoints int) QDisc {
	switch p.Disc {
	case OneQ:
		return newOneQ(p, env, numEndpoints)
	case VOQSw:
		return newVOQSw(p, env, nOut)
	case VOQNet:
		return newVOQNet(p, env, numEndpoints)
	case DBBM:
		return newDBBM(p, env, numEndpoints)
	case OBQA:
		return newOBQA(p, env)
	case NFQCFQ:
		return NewIsolationUnit(p, env)
	default:
		panic(fmt.Sprintf("core: unknown discipline %v", p.Disc))
	}
}

// ---------------------------------------------------------------------
// 1Q: a single FIFO.

type oneQ struct {
	env   PortEnv
	ram   *buffer.RAM
	q     *buffer.Queue
	stats DiscStats
}

func newOneQ(p *Params, env PortEnv, numEndpoints int) *oneQ {
	ram := buffer.NewRAM(p.EffectivePortRAM(numEndpoints))
	return &oneQ{env: env, ram: ram, q: buffer.NewQueue("1q", ram)}
}

func (d *oneQ) Fits(size int) bool { return d.ram.Fits(size) }
func (d *oneQ) Enqueue(p *pkt.Packet, _ int) {
	d.q.Push(p)
}
func (d *oneQ) Post(sim.Cycle) {}
func (d *oneQ) Requests(_ sim.Cycle, buf []Request) []Request {
	if h := d.q.Head(); h != nil {
		buf = append(buf, Request{QID: 0, Out: d.env.Route(h.Dst), Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
	}
	return buf
}
func (d *oneQ) Pop(qid int) *pkt.Packet {
	if qid != 0 {
		panic("core: 1Q has a single queue")
	}
	return d.q.Pop()
}
func (d *oneQ) Update(sim.Cycle)  {}
func (d *oneQ) Quiescent() bool   { return d.ram.Used() == 0 }
func (d *oneQ) UsedBytes() int    { return d.ram.Used() }
func (d *oneQ) Capacity() int     { return d.ram.Capacity() }
func (d *oneQ) QueueCount() int   { return 1 }
func (d *oneQ) Stats() *DiscStats { return &d.stats }

// ---------------------------------------------------------------------
// VOQsw: one queue per local output port. Used by the ITh scheme; its
// queues drive the two-threshold congestion state of their output port.

type voqSw struct {
	p        *Params
	env      PortEnv
	ram      *buffer.RAM
	qs       []*buffer.Queue
	overHigh []bool
	stats    DiscStats
}

func newVOQSw(p *Params, env PortEnv, nOut int) *voqSw {
	if nOut <= 0 {
		panic("core: VOQsw needs at least one output port")
	}
	ram := buffer.NewRAM(p.PortRAM)
	qs := make([]*buffer.Queue, nOut)
	for i := range qs {
		qs[i] = buffer.NewQueue(fmt.Sprintf("voq%d", i), ram)
	}
	return &voqSw{p: p, env: env, ram: ram, qs: qs, overHigh: make([]bool, nOut)}
}

func (d *voqSw) Fits(size int) bool { return d.ram.Fits(size) }
func (d *voqSw) Enqueue(p *pkt.Packet, _ int) {
	d.qs[d.env.Route(p.Dst)].Push(p)
}
func (d *voqSw) Post(sim.Cycle) {}
func (d *voqSw) Requests(_ sim.Cycle, buf []Request) []Request {
	for i, q := range d.qs {
		if h := q.Head(); h != nil {
			buf = append(buf, Request{QID: i, Out: i, Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
		}
	}
	return buf
}
func (d *voqSw) Pop(qid int) *pkt.Packet { return d.qs[qid].Pop() }

// Update re-evaluates the per-VOQ High/Low hysteresis that drives the
// output-port congestion state (Section II: IB-style detection mapped
// to VOQ fill, with the two thresholds of [12]).
func (d *voqSw) Update(sim.Cycle) {
	if !d.p.MarkingEnabled {
		return
	}
	for i, q := range d.qs {
		b := q.Bytes()
		if !d.overHigh[i] && b >= d.p.HighThreshold {
			d.overHigh[i] = true
			d.env.MarkCrossed(i, true)
		} else if d.overHigh[i] && b <= d.p.LowThreshold {
			d.overHigh[i] = false
			d.env.MarkCrossed(i, false)
		}
	}
}

// Quiescent additionally requires every High/Low flag to be clear: a
// still-set flag means the next Update must issue MarkCrossed(false).
func (d *voqSw) Quiescent() bool {
	if d.ram.Used() != 0 {
		return false
	}
	for _, over := range d.overHigh {
		if over {
			return false
		}
	}
	return true
}
func (d *voqSw) UsedBytes() int    { return d.ram.Used() }
func (d *voqSw) Capacity() int     { return d.ram.Capacity() }
func (d *voqSw) QueueCount() int   { return len(d.qs) }
func (d *voqSw) Stats() *DiscStats { return &d.stats }

// ---------------------------------------------------------------------
// VOQnet: one queue per destination endpoint. Completely removes
// HoL-blocking; needs memory proportional to network size.

type voqNet struct {
	env   PortEnv
	ram   *buffer.RAM
	qs    []*buffer.Queue
	stats DiscStats
	// active tracks non-empty queues so a 64-destination port does not
	// scan every queue every cycle; pos[i] is i's index into active,
	// or -1.
	active []int
	pos    []int
}

func newVOQNet(p *Params, env PortEnv, numEndpoints int) *voqNet {
	if numEndpoints <= 0 {
		panic("core: VOQnet needs endpoints")
	}
	ram := buffer.NewRAM(p.EffectivePortRAM(numEndpoints))
	qs := make([]*buffer.Queue, numEndpoints)
	pos := make([]int, numEndpoints)
	for i := range qs {
		qs[i] = buffer.NewQueue(fmt.Sprintf("dq%d", i), ram)
		pos[i] = -1
	}
	return &voqNet{env: env, ram: ram, qs: qs, pos: pos}
}

func (d *voqNet) Fits(size int) bool { return d.ram.Fits(size) }
func (d *voqNet) Enqueue(p *pkt.Packet, _ int) {
	q := d.qs[p.Dst]
	q.Push(p)
	if d.pos[p.Dst] < 0 {
		d.pos[p.Dst] = len(d.active)
		d.active = append(d.active, p.Dst)
	}
}
func (d *voqNet) Post(sim.Cycle) {}
func (d *voqNet) Requests(_ sim.Cycle, buf []Request) []Request {
	for _, i := range d.active {
		h := d.qs[i].Head()
		buf = append(buf, Request{QID: i, Out: d.env.Route(h.Dst), Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
	}
	return buf
}
func (d *voqNet) Pop(qid int) *pkt.Packet {
	p := d.qs[qid].Pop()
	if p != nil && d.qs[qid].Empty() {
		// Remove qid from the active list (swap with the last entry).
		ai := d.pos[qid]
		last := d.active[len(d.active)-1]
		d.active[ai] = last
		d.pos[last] = ai
		d.active = d.active[:len(d.active)-1]
		d.pos[qid] = -1
	}
	return p
}

// DestBytes implements DestOccupancy: bytes queued for one destination.
func (d *voqNet) DestBytes(dest int) int { return d.qs[dest].Bytes() }

// DestOccupancy is implemented by disciplines with per-destination
// queues; hosts use it to keep staging per-destination-shallow so one
// blocked destination cannot monopolise the staging budget.
type DestOccupancy interface {
	DestBytes(dest int) int
}

// ---------------------------------------------------------------------
// OBQA: output-based queue assignment (Escudero-Sahuquillo et al.,
// Euro-Par 2010, cited as [26]): the queue is selected by the output
// port the packet will request at the *next* switch, which in fat
// trees separates flows that will diverge one hop ahead — fewer queues
// than VOQsw for comparable HoL reduction. Not part of the paper's
// evaluated set; included as an extra related-work baseline.

type obqa struct {
	env   PortEnv
	ram   *buffer.RAM
	qs    []*buffer.Queue
	stats DiscStats
}

func newOBQA(p *Params, env PortEnv) *obqa {
	n := p.OBQAQueues
	if n <= 0 {
		panic("core: OBQA needs a positive queue count")
	}
	ram := buffer.NewRAM(p.PortRAM)
	qs := make([]*buffer.Queue, n)
	for i := range qs {
		qs[i] = buffer.NewQueue(fmt.Sprintf("obqa%d", i), ram)
	}
	return &obqa{env: env, ram: ram, qs: qs}
}

func (d *obqa) queueFor(dest int) int {
	out := d.env.Route(dest)
	return d.env.Lookahead(out, dest) % len(d.qs)
}

func (d *obqa) Fits(size int) bool { return d.ram.Fits(size) }
func (d *obqa) Enqueue(p *pkt.Packet, _ int) {
	d.qs[d.queueFor(p.Dst)].Push(p)
}
func (d *obqa) Post(sim.Cycle) {}
func (d *obqa) Requests(_ sim.Cycle, buf []Request) []Request {
	for i, q := range d.qs {
		if h := q.Head(); h != nil {
			buf = append(buf, Request{QID: i, Out: d.env.Route(h.Dst), Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
		}
	}
	return buf
}
func (d *obqa) Pop(qid int) *pkt.Packet { return d.qs[qid].Pop() }
func (d *obqa) Update(sim.Cycle)        {}
func (d *obqa) Quiescent() bool         { return d.ram.Used() == 0 }
func (d *obqa) UsedBytes() int          { return d.ram.Used() }
func (d *obqa) Capacity() int           { return d.ram.Capacity() }
func (d *obqa) QueueCount() int         { return len(d.qs) }
func (d *obqa) Stats() *DiscStats       { return &d.stats }

func (d *voqNet) Update(sim.Cycle)  {}
func (d *voqNet) Quiescent() bool   { return d.ram.Used() == 0 }
func (d *voqNet) UsedBytes() int    { return d.ram.Used() }
func (d *voqNet) Capacity() int     { return d.ram.Capacity() }
func (d *voqNet) QueueCount() int   { return len(d.qs) }
func (d *voqNet) Stats() *DiscStats { return &d.stats }

// ---------------------------------------------------------------------
// DBBM: destination-based buffer management, queue = dest mod N.

type dbbm struct {
	env   PortEnv
	ram   *buffer.RAM
	qs    []*buffer.Queue
	stats DiscStats
}

func newDBBM(p *Params, env PortEnv, numEndpoints int) *dbbm {
	n := p.DBBMQueues
	if n > numEndpoints {
		n = numEndpoints
	}
	ram := buffer.NewRAM(p.PortRAM)
	qs := make([]*buffer.Queue, n)
	for i := range qs {
		qs[i] = buffer.NewQueue(fmt.Sprintf("dbbm%d", i), ram)
	}
	return &dbbm{env: env, ram: ram, qs: qs}
}

func (d *dbbm) Fits(size int) bool { return d.ram.Fits(size) }
func (d *dbbm) Enqueue(p *pkt.Packet, _ int) {
	d.qs[p.Dst%len(d.qs)].Push(p)
}
func (d *dbbm) Post(sim.Cycle) {}
func (d *dbbm) Requests(_ sim.Cycle, buf []Request) []Request {
	for i, q := range d.qs {
		if h := q.Head(); h != nil {
			buf = append(buf, Request{QID: i, Out: d.env.Route(h.Dst), Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
		}
	}
	return buf
}
func (d *dbbm) Pop(qid int) *pkt.Packet { return d.qs[qid].Pop() }
func (d *dbbm) Update(sim.Cycle)        {}
func (d *dbbm) Quiescent() bool         { return d.ram.Used() == 0 }
func (d *dbbm) UsedBytes() int          { return d.ram.Used() }
func (d *dbbm) Capacity() int           { return d.ram.Capacity() }
func (d *dbbm) QueueCount() int         { return len(d.qs) }
func (d *dbbm) Stats() *DiscStats       { return &d.stats }
