package core

import (
	"fmt"
	"slices"

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

// QDisc is a port queue organisation: a bank built from a row of the
// disciplines table (this file), or the one dynamic organisation,
// IsolationUnit (isolation.go).
type QDisc interface {
	// Fits reports whether a packet of the given size can be admitted
	// (credit check performed by the upstream sender's mirror counter;
	// Fits is used for local injection admission).
	Fits(size int) bool
	// Enqueue admits an arriving packet; cfq >= 0 targets a specific
	// CFQ (direct CFQ-to-CFQ forwarding), -1 the normal path.
	Enqueue(p *pkt.Packet, cfq int)
	// Post runs per-cycle post-processing: congested-packet moves,
	// congestion detection, CAM maintenance. It reports whether it acted
	// (moved a packet, allocated a line, counted an exhausted CAM on the
	// lazy path); a failed detection scan is not one, its retry is due.
	Post(now sim.Cycle) bool
	// Requests appends this cycle's arbitration candidates to buf and
	// returns the extended slice. Hosts pass their own scratch (reset to
	// length 0) so enumeration allocates nothing per cycle.
	Requests(now sim.Cycle, buf []Request) []Request
	// Pop removes and returns the head of queue qid.
	Pop(qid int) *pkt.Packet
	// Update runs end-of-cycle housekeeping: Stop/Go transitions,
	// deallocation, congestion-state crossings; reports whether one was.
	Update(now sim.Cycle) bool
	// NextDue is asked after a cycle in which neither Post nor Update
	// acted: the first cycle at which one of them would act again with
	// no Enqueue, Pop or control message in between (sim.Never when only
	// such an event can make them). Until then a host may skip both; a
	// cycle at or before now means "do not skip".
	NextDue(now sim.Cycle) sim.Cycle
	// Resume ends a stretch of skipped ticks: it is called at cycle now,
	// before the event that ends the stretch mutates the discipline, and
	// replays what the skipped Updates through now-1 would have stamped.
	Resume(now sim.Cycle)
	// UsedBytes returns the RAM occupancy.
	UsedBytes() int
	// Quiescent reports whether skipping this discipline's Post/Update
	// ticks would be a no-op: no buffered bytes and no deferred
	// housekeeping (allocated CAM lines awaiting hold-down, congestion
	// state left to clear). Hosts use it to sleep idle ports: the case of
	// "did not act, nothing due" that not even a request can come out of.
	Quiescent() bool
	// Capacity returns the RAM size in bytes.
	Capacity() int
	// QueueCount returns the number of queues (diagnostics).
	QueueCount() int
	// Stats exposes event counters.
	Stats() *DiscStats
}

// discipline is one row of the disciplines table: everything the rest
// of the simulator knows about a queue organisation. A static one is a
// destination->queue map over FIFOs sharing the port RAM, so adding one
// is adding a row.
type discipline struct {
	name string
	// queues sizes a port with nOut local outputs among numEndpoints
	// endpoints.
	queues func(p *Params, nOut, numEndpoints int) int
	// classify files a destination into one of the n queues; nil marks
	// the dynamic organisation (NFQ+CFQ, isolation.go).
	classify func(env PortEnv, dest, n int) int
	// perDest: one queue per destination endpoint, VOQNetQueueRAM deep
	// with its own credit; hosts may ask it for DestOccupancy.
	perDest bool
	// marks: queue i is output port i's, and its High/Low fill drives
	// that port's congestion state (Section II).
	marks bool
	// ia is the input adapter's output buffer: Fig. 2 mirrors the switch
	// port for the isolation schemes, VOQnet keeps its queues end to end,
	// the rest (the zero value, OneQ) put a plain FIFO before the link.
	ia Discipline
	// count is the Params field the row is sized by, which Validate
	// requires to be positive; nil when the topology alone sizes it.
	count func(p *Params) int
}

var disciplines = [...]discipline{
	OneQ: {
		name:     "1Q",
		queues:   func(*Params, int, int) int { return 1 },
		classify: func(PortEnv, int, int) int { return 0 },
	},
	VOQSw: {
		name:     "VOQsw",
		queues:   func(_ *Params, nOut, _ int) int { return nOut },
		classify: func(env PortEnv, dest, _ int) int { return env.Route(dest) },
		marks:    true,
	},
	VOQNet: {
		name:     "VOQnet",
		queues:   func(_ *Params, _, numEndpoints int) int { return numEndpoints },
		classify: func(_ PortEnv, dest, _ int) int { return dest },
		perDest:  true,
		ia:       VOQNet,
	},
	DBBM: {
		name:     "DBBM",
		queues:   func(p *Params, _, numEndpoints int) int { return min(p.DBBMQueues, numEndpoints) },
		classify: func(_ PortEnv, dest, n int) int { return dest % n },
		count:    func(p *Params) int { return p.DBBMQueues },
	},
	OBQA: {
		name:     "OBQA",
		queues:   func(p *Params, _, _ int) int { return p.OBQAQueues },
		classify: func(env PortEnv, dest, n int) int { return env.Lookahead(env.Route(dest), dest) % n },
		count:    func(p *Params) int { return p.OBQAQueues },
	},
	NFQCFQ: {
		name:  "NFQ+CFQ",
		ia:    NFQCFQ,
		count: func(p *Params) int { return p.NumCFQs },
	},
}

// NewQDisc builds the discipline selected by p.Disc for a port with
// nOut local output ports in a network of numEndpoints endpoints.
func NewQDisc(p *Params, env PortEnv, nOut, numEndpoints int) QDisc {
	row := &disciplines[p.Disc]
	if row.classify == nil {
		return NewIsolationUnit(p, env)
	}
	n := row.queues(p, nOut, numEndpoints)
	if n <= 0 {
		panic(fmt.Sprintf("core: %s needs at least one queue, got %d", row.name, n))
	}
	b := bank{
		env:      env,
		classify: row.classify,
		ram:      buffer.NewRAM(p.EffectivePortRAM(numEndpoints)),
		qs:       make([]*buffer.Queue, n),
	}
	b.occupied.Grow(n)
	for i := range b.qs {
		b.qs[i] = buffer.NewQueue(fmt.Sprintf("%s[%d]", row.name, i), b.ram)
	}
	switch {
	case row.marks:
		return &voqSw{bank: b, p: p, overHigh: make([]bool, n)}
	case row.perDest:
		return &destBank{b}
	}
	return &b
}

// bank is every static discipline: FIFOs sharing one port RAM, each
// arrival filed by the row's classifier. occupied holds the non-empty
// queues (set by Enqueue, cleared by the Pop that empties one) and is
// sized at build: Requests visits only queues with a head, in ascending
// index order, and the steady state allocates nothing.
type bank struct {
	env      PortEnv
	classify func(env PortEnv, dest, n int) int
	ram      *buffer.RAM
	qs       []*buffer.Queue
	occupied sim.ActiveSet
	stats    DiscStats
}

func (b *bank) Enqueue(p *pkt.Packet, _ int) {
	i := b.classify(b.env, p.Dst, len(b.qs))
	b.qs[i].Push(p)
	b.occupied.Add(i)
}

func (b *bank) Requests(_ sim.Cycle, buf []Request) []Request {
	for i := b.occupied.Next(0); i >= 0; i = b.occupied.Next(i + 1) {
		h := b.qs[i].Head()
		buf = append(buf, Request{QID: i, Out: b.env.Route(h.Dst), Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
	}
	return buf
}

func (b *bank) Pop(qid int) *pkt.Packet {
	p := b.qs[qid].Pop()
	if p != nil && b.qs[qid].Empty() {
		b.occupied.Remove(qid)
	}
	return p
}

func (b *bank) Fits(size int) bool          { return b.ram.Fits(size) }
func (b *bank) Post(sim.Cycle) bool         { return false }
func (b *bank) Update(sim.Cycle) bool       { return false }
func (b *bank) NextDue(sim.Cycle) sim.Cycle { return sim.Never }
func (b *bank) Resume(sim.Cycle)            {}
func (b *bank) Quiescent() bool             { return b.ram.Used() == 0 }
func (b *bank) UsedBytes() int              { return b.ram.Used() }
func (b *bank) Capacity() int               { return b.ram.Capacity() }
func (b *bank) QueueCount() int             { return len(b.qs) }
func (b *bank) Stats() *DiscStats           { return &b.stats }

// voqSw is the bank of a row that marks (VOQsw, which the ITh scheme
// runs over): it adds the two-threshold congestion state of the output
// port each queue feeds.
type voqSw struct {
	bank
	p        *Params
	overHigh []bool
}

// Update re-evaluates the per-VOQ High/Low hysteresis that drives the
// output-port congestion state (Section II: IB-style detection mapped
// to VOQ fill, with the two thresholds of [12]). Fill only moves with an
// Enqueue or a Pop, so a crossing is the only action and there is never
// a deadline (the bank's NextDue).
func (d *voqSw) Update(sim.Cycle) (acted bool) {
	if !d.p.MarkingEnabled {
		return false
	}
	for i, q := range d.qs {
		b := q.Bytes()
		if !d.overHigh[i] && b >= d.p.HighThreshold {
			d.overHigh[i], acted = true, true
			d.env.MarkCrossed(i, true)
		} else if d.overHigh[i] && b <= d.p.LowThreshold {
			d.overHigh[i], acted = false, true
			d.env.MarkCrossed(i, false)
		}
	}
	return acted
}

// Quiescent additionally requires every High/Low flag to be clear: a
// still-set flag means the next Update must issue MarkCrossed(false).
func (d *voqSw) Quiescent() bool {
	return d.ram.Used() == 0 && !slices.Contains(d.overHigh, true)
}

// DestOccupancy is implemented by disciplines with per-destination
// queues; hosts use it to keep staging per-destination-shallow so one
// blocked destination cannot monopolise the staging budget.
type DestOccupancy interface {
	DestBytes(dest int) int
}

// destBank is the bank of a per-destination row (VOQnet).
type destBank struct{ bank }

// DestBytes implements DestOccupancy: bytes queued for one destination.
func (d *destBank) DestBytes(dest int) int { return d.qs[dest].Bytes() }
