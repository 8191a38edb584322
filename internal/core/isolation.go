package core

import (
	"fmt"

	"repro/internal/buffer"
	"repro/internal/cam"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// InLine is the payload of an input-port CAM line: the state of one
// congestion tree isolated in the CFQ of the same index.
type InLine struct {
	// Out is the local output port every destination of this line
	// routes through.
	Out int
	// Root marks a CFQ 1 hop from the congested point (allocated by
	// local detection with no downstream line): only root CFQs drive
	// the output port's congestion state (Section III-C).
	Root bool
	// Announced records that a CFQAlloc was propagated upstream.
	Announced bool
	// Stopped records that upstream is currently held in Stop.
	Stopped bool
	// OverHigh is the High/Low hysteresis flag feeding marking.
	OverHigh bool
	// LastActive is the last cycle the CFQ held a packet (hold-down).
	LastActive sim.Cycle
}

// IsolationUnit is the NFQ+CFQ queue organisation of FBICM and CCFIT
// (Fig. 1 of the paper): one normal-flow queue, NumCFQs congested-flow
// queues, and a CAM whose line i describes the congestion tree isolated
// in CFQ i. It implements QDisc; the CCFIT behaviour of Section III-C
// (detection, post-processing, propagation, Stop/Go, deallocation,
// marking feed) lives here.
type IsolationUnit struct {
	p     *Params
	env   PortEnv
	label string
	ram   *buffer.RAM
	nfq   *buffer.Queue
	cfqs  []*buffer.Queue
	cam   *cam.CAM[InLine]
	stats DiscStats

	// detectRetry throttles repeated detection scans: a failed scan is
	// not retried until this cycle (the NFQ composition rarely changes
	// within a packet time; the scan is the hottest loop under
	// saturation).
	detectRetry sim.Cycle

	// scratch for detection scans
	scanDst []int
	scanB   []int
}

// NewIsolationUnit builds the NFQ+CFQ organisation for one port.
func NewIsolationUnit(p *Params, env PortEnv) *IsolationUnit {
	ram := buffer.NewRAM(p.PortRAM)
	u := &IsolationUnit{
		p:    p,
		env:  env,
		ram:  ram,
		nfq:  buffer.NewQueue("nfq", ram),
		cfqs: make([]*buffer.Queue, p.NumCFQs),
		cam:  cam.New[InLine](p.NumCFQs),
	}
	for i := range u.cfqs {
		u.cfqs[i] = buffer.NewQueue(fmt.Sprintf("cfq%d", i), ram)
	}
	return u
}

// SetTraceLabel names this unit in traced events (e.g. "sw<0,1>:p3").
func (u *IsolationUnit) SetTraceLabel(l string) { u.label = l }

// Fits reports whether the shared port RAM can admit size bytes.
func (u *IsolationUnit) Fits(size int) bool { return u.ram.Fits(size) }

// Enqueue admits an arriving packet. cfq >= 0 is the direct
// CFQ-to-CFQ path: the upstream hop targeted our CFQ explicitly. If the
// line was recycled for another tree in the meantime the packet falls
// back to the NFQ (post-processing will re-sort it).
func (u *IsolationUnit) Enqueue(p *pkt.Packet, cfq int) {
	if cfq >= 0 && cfq < len(u.cfqs) && p.Kind != pkt.BECN &&
		u.cam.Valid(cfq) && destIn(u.cam.Dests(cfq), p.Dst) {
		u.cfqs[cfq].Push(p)
		u.stats.DirectArrivals++
		return
	}
	if cfq >= 0 {
		u.stats.MisroutedDirect++
	}
	u.nfq.Push(p)
}

// Post is the packet post-processing mechanism (Event #3 in Fig. 3):
// examine the NFQ head; congested packets (CAM match) move to their
// CFQ; heads matching a downstream-announced congestion point trigger
// lazy CFQ allocation; an NFQ above the detection threshold triggers
// congestion detection. Only non-congested packets remain at the head,
// eliminating HoL-blocking.
func (u *IsolationUnit) Post(now sim.Cycle) (acted bool) {
	for moves := 0; moves < u.p.PostMovesPerCycle; moves++ {
		h := u.nfq.Head()
		// BECNs only use NFQs (Section III-B) and are never congested.
		if h == nil || h.Kind == pkt.BECN {
			return acted
		}
		if li := u.cam.Match(h.Dst); li >= 0 {
			u.nfq.TransferHead(u.cfqs[li])
			u.cam.Payload(li).LastActive = now
			u.stats.PostMoves++
			acted = true
			continue
		}
		// Lazy allocation: downstream announced a congestion point
		// covering this destination; isolate it here too.
		out := u.env.Route(h.Dst)
		if _, _, ok := u.env.OutLine(out, h.Dst); ok {
			if u.allocFromDownstream(now, out, h.Dst) {
				acted = true
				continue // head now matches; next iteration moves it
			}
			// Counted every cycle the head waits: an action, so that the
			// port stays hot rather than owe the count to a replay.
			u.stats.CAMExhausted++
			emit(u.p.Tracer, now, trace.EvExhaust, u.label, h.Dst, -1)
			return true // no CFQ free: head proceeds as normal traffic
		}
		// Local congestion detection (Event #2 in Fig. 3). A failed scan
		// (and its CAMExhausted) recurs at detectRetry: due, not an action.
		if u.nfq.Bytes() >= u.p.DetectionThreshold && now >= u.detectRetry {
			if u.detect(now) {
				acted = true
				continue
			}
			u.detectRetry = now + detectBackoff
		}
		return acted
	}
	return acted
}

// detectBackoff is the scan-retry interval after a failed detection:
// half an MTU serialization time, far below any protocol timescale.
const detectBackoff = 16

// allocFromDownstream creates a non-root CFQ/CAM line mirroring the
// downstream congestion point that covers dest through out. Lines are
// kept at single-destination granularity (the evaluated congestion
// trees are endpoint hot spots); a multi-destination downstream line
// simply seeds one local line per destination as packets appear.
func (u *IsolationUnit) allocFromDownstream(now sim.Cycle, out, dest int) bool {
	_, _, ok := u.env.OutLine(out, dest)
	if !ok {
		return false
	}
	dests := []int{dest}
	li := u.cam.Alloc(dests, InLine{Out: out, Root: false, LastActive: now})
	if li < 0 {
		return false
	}
	u.stats.LazyAllocs++
	emit(u.p.Tracer, now, trace.EvLazyAlloc, u.label, dest, li)
	return true
}

// detect scans the NFQ for the destination holding the most bytes that
// is not already tracked, and allocates a CFQ/CAM line for it. The line
// is a tree root unless the routed output port already has a
// downstream-announced line for that destination.
func (u *IsolationUnit) detect(now sim.Cycle) bool {
	u.scanDst = u.scanDst[:0]
	u.scanB = u.scanB[:0]
	n := u.nfq.Len()
	if n > u.p.DetectScan {
		n = u.p.DetectScan
	}
	for i := 0; i < n; i++ {
		p := u.nfq.At(i)
		if p.Kind == pkt.BECN || u.cam.Match(p.Dst) >= 0 {
			continue
		}
		found := false
		for j, d := range u.scanDst {
			if d == p.Dst {
				u.scanB[j] += p.Size
				found = true
				break
			}
		}
		if !found {
			u.scanDst = append(u.scanDst, p.Dst)
			u.scanB = append(u.scanB, p.Size)
		}
	}
	best, bestBytes := -1, 0
	for j, d := range u.scanDst {
		if u.scanB[j] > bestBytes || (u.scanB[j] == bestBytes && best >= 0 && d < best) {
			best, bestBytes = d, u.scanB[j]
		}
	}
	// Only flows that materially contribute to the overflow are
	// congested: require the dominant destination to hold at least half
	// the detection threshold, so lone victim packets are not isolated.
	if best < 0 || bestBytes < u.p.DetectionThreshold/2 {
		return false
	}
	out := u.env.Route(best)
	// Root test (Section II, the IB root condition): this port is one
	// hop from the congested point only if no downstream hop already
	// announced the tree AND the output port can actually forward
	// (credits available) — a starving output means the real root is
	// further downstream and this line must not drive marking.
	_, _, downstream := u.env.OutLine(out, best)
	root := !downstream && u.env.OutCredits(out, best) >= pkt.MTU
	li := u.cam.Alloc([]int{best}, InLine{Out: out, Root: root, LastActive: now})
	if li < 0 {
		u.stats.CAMExhausted++
		emit(u.p.Tracer, now, trace.EvExhaust, u.label, best, -1)
		return false
	}
	u.stats.Detections++
	emit(u.p.Tracer, now, trace.EvDetect, u.label, best, li)
	return true
}

// Requests appends the arbitration candidates: the NFQ head (guaranteed
// non-congested after Post) and every CFQ head whose downstream line is
// in Go state. CFQ heads carry the direct downstream-CFQ target.
func (u *IsolationUnit) Requests(_ sim.Cycle, buf []Request) []Request {
	if h := u.nfq.Head(); h != nil {
		if h.Kind == pkt.BECN || u.cam.Match(h.Dst) < 0 {
			buf = append(buf, Request{QID: 0, Out: u.env.Route(h.Dst), Pkt: h, DirectCFQ: -1, Priority: h.Kind == pkt.BECN})
		}
	}
	if u.cam.FreeLines() == len(u.cfqs) {
		return buf
	}
	for i, q := range u.cfqs {
		h := q.Head()
		if h == nil || !u.cam.Valid(i) {
			continue
		}
		out := u.cam.Payload(i).Out
		direct := -1
		if stopped, down, ok := u.env.OutLine(out, h.Dst); ok {
			if stopped {
				continue // per-CFQ Stop/Go flow control holds us
			}
			direct = down
		}
		buf = append(buf, Request{QID: i + 1, Out: out, Pkt: h, DirectCFQ: direct})
	}
	return buf
}

// Pop removes the head of queue qid (0 = NFQ, i+1 = CFQ i).
func (u *IsolationUnit) Pop(qid int) *pkt.Packet {
	if qid == 0 {
		return u.nfq.Pop()
	}
	return u.cfqs[qid-1].Pop()
}

// Update runs the end-of-cycle housekeeping of Section III-C:
// congestion-information propagation (CFQAlloc upstream once a CFQ
// passes the propagation threshold), per-CFQ Stop/Go flow control,
// root-CFQ High/Low crossings driving the output-port congestion state,
// and the dynamic distributed deallocation (Event #6).
func (u *IsolationUnit) Update(now sim.Cycle) (acted bool) {
	inUse := 0
	u.cam.Each(func(i int, dests []int, line *InLine) {
		inUse++
		q := u.cfqs[i]
		b := q.Bytes()
		if b > 0 {
			line.LastActive = now
		}
		if !line.Announced && b >= u.p.PropagateThreshold {
			u.env.NotifyUpstream(link.Control{Kind: link.CFQAlloc, CFQ: i, Dests: dests})
			line.Announced, acted = true, true
			emit(u.p.Tracer, now, trace.EvPropagate, u.label, dests[0], i)
		}
		if !line.Stopped && b >= u.p.StopThreshold {
			if !line.Announced {
				u.env.NotifyUpstream(link.Control{Kind: link.CFQAlloc, CFQ: i, Dests: dests})
				line.Announced = true
			}
			u.env.NotifyUpstream(link.Control{Kind: link.CFQStop, CFQ: i})
			line.Stopped, acted = true, true
			u.stats.StopsSent++
			emit(u.p.Tracer, now, trace.EvStop, u.label, dests[0], i)
		} else if line.Stopped && b <= u.p.GoThreshold {
			u.env.NotifyUpstream(link.Control{Kind: link.CFQGo, CFQ: i})
			line.Stopped, acted = false, true
			u.stats.GoesSent++
			emit(u.p.Tracer, now, trace.EvGo, u.label, dests[0], i)
		}
		if u.p.MarkingEnabled && line.Root {
			if !line.OverHigh && b >= u.p.HighThreshold {
				line.OverHigh, acted = true, true
				u.env.MarkCrossed(line.Out, true)
			} else if line.OverHigh && b <= u.p.LowThreshold {
				line.OverHigh, acted = false, true
				u.env.MarkCrossed(line.Out, false)
			}
		}
		// Deallocation: empty, line in Go status, hold-down expired.
		if b == 0 && !line.Stopped && now-line.LastActive >= u.p.HoldDown {
			if line.OverHigh {
				u.env.MarkCrossed(line.Out, false)
			}
			if line.Announced {
				u.env.NotifyUpstream(link.Control{Kind: link.CFQDealloc, CFQ: i})
			}
			u.cam.Free(i)
			u.stats.Deallocs++
			acted = true
			inUse--
			emit(u.p.Tracer, now, trace.EvDealloc, u.label, dests[0], i)
		}
	})
	if inUse > u.stats.MaxCFQsInUse {
		u.stats.MaxCFQsInUse = inUse
	}
	return acted
}

// NextDue names the two things time alone brings about (every other
// transition compares occupancy with a threshold, and occupancy moves
// with an Enqueue, a Pop or a Post move): the detection retry while the
// NFQ is over its threshold, the hold-down of every empty line in Go.
func (u *IsolationUnit) NextDue(sim.Cycle) sim.Cycle {
	due := sim.Never
	if u.nfq.Bytes() >= u.p.DetectionThreshold {
		due = u.detectRetry
	}
	u.cam.Each(func(i int, _ []int, line *InLine) {
		if u.cfqs[i].Bytes() == 0 && !line.Stopped {
			due = min(due, line.LastActive+u.p.HoldDown)
		}
	})
	return due
}

// Resume replays the one thing a skipped Update writes without acting:
// the LastActive stamp of every line whose CFQ holds bytes. It runs
// before the waking event mutates a queue, so a packet that arrives in
// an empty CFQ and is popped the same cycle leaves the old stamp.
func (u *IsolationUnit) Resume(now sim.Cycle) {
	u.cam.Each(func(i int, _ []int, line *InLine) {
		if u.cfqs[i].Bytes() > 0 {
			line.LastActive = now - 1
		}
	})
}

// DemoteRoot clears the Root flag of lines pointing at output port out
// whose destinations overlap dests: the downstream hop announced its
// own CFQ for the tree, so the congested point is more than one hop
// away and this port must no longer drive the congestion state
// (Section III-C: only 1-hop CFQs move ports into the congestion state).
func (u *IsolationUnit) DemoteRoot(out int, dests []int) {
	u.cam.Each(func(i int, lineDests []int, line *InLine) {
		if !line.Root || line.Out != out {
			return
		}
		for _, d := range lineDests {
			if destIn(dests, d) {
				line.Root = false
				if line.OverHigh {
					line.OverHigh = false
					u.env.MarkCrossed(line.Out, false)
				}
				emit(u.p.Tracer, line.LastActive, trace.EvDemote, u.label, d, i)
				return
			}
		}
	})
}

// UsedBytes returns the RAM occupancy.
func (u *IsolationUnit) UsedBytes() int { return u.ram.Used() }

// Quiescent reports whether Post/Update ticks can be skipped: beyond an
// empty RAM this requires every CAM line freed, because an allocated
// line still needs Update ticks to run its hold-down deallocation (and
// the upstream CFQDealloc that goes with it).
func (u *IsolationUnit) Quiescent() bool {
	return u.ram.Used() == 0 && u.cam.FreeLines() == len(u.cfqs)
}

// Capacity returns the RAM size.
func (u *IsolationUnit) Capacity() int { return u.ram.Capacity() }

// QueueCount returns 1 + NumCFQs.
func (u *IsolationUnit) QueueCount() int { return 1 + len(u.cfqs) }

// Stats exposes the event counters.
func (u *IsolationUnit) Stats() *DiscStats { return &u.stats }

// NFQBytes returns the NFQ occupancy (diagnostics and tests).
func (u *IsolationUnit) NFQBytes() int { return u.nfq.Bytes() }

// CFQBytes returns CFQ i's occupancy (diagnostics and tests).
func (u *IsolationUnit) CFQBytes(i int) int { return u.cfqs[i].Bytes() }

// ActiveLines returns how many CAM lines are allocated.
func (u *IsolationUnit) ActiveLines() int { return u.p.NumCFQs - u.cam.FreeLines() }

// LineInfo returns a copy of CAM line i's state for diagnostics, and
// whether the line is allocated.
func (u *IsolationUnit) LineInfo(i int) (InLine, []int, bool) {
	if !u.cam.Valid(i) {
		return InLine{}, nil, false
	}
	return *u.cam.Payload(i), u.cam.Dests(i), true
}

func destIn(dests []int, d int) bool {
	for _, x := range dests {
		if x == d {
			return true
		}
	}
	return false
}
