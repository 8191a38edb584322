// Package link models the network links: serialization at a configured
// bandwidth (bytes/cycle), propagation delay, and an out-of-band
// control channel carrying the credit returns of the credit-based
// link-level flow control plus the FBICM/CCFIT congestion-information
// protocol (CFQ allocation/deallocation notifications and per-CFQ
// Stop/Go flow control). Control messages experience the link's
// propagation delay but consume no data bandwidth (they are a few bytes
// against 2 KB MTUs; see DESIGN.md substitutions).
package link

import (
	"fmt"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// CtlKind enumerates control-channel message types.
type CtlKind uint8

const (
	// Credit returns freed buffer space (Bytes) to the upstream output
	// port, implementing credit-based flow control (Table I).
	Credit CtlKind = iota
	// CFQAlloc tells the upstream output port that the downstream
	// input port allocated CFQ index CFQ for the congestion point at
	// destination Dest; the upstream allocates an output CAM line.
	CFQAlloc
	// CFQStop stops forwarding into downstream CFQ index CFQ.
	CFQStop
	// CFQGo re-enables forwarding into downstream CFQ index CFQ.
	CFQGo
	// CFQDealloc tears down the upstream output CAM line for CFQ.
	CFQDealloc
)

func (k CtlKind) String() string {
	switch k {
	case Credit:
		return "credit"
	case CFQAlloc:
		return "cfq-alloc"
	case CFQStop:
		return "cfq-stop"
	case CFQGo:
		return "cfq-go"
	case CFQDealloc:
		return "cfq-dealloc"
	default:
		return fmt.Sprintf("ctl(%d)", uint8(k))
	}
}

// Control is an out-of-band message flowing from an input port to the
// output port feeding it (upstream direction only; the forward
// direction carries its information in packet headers, e.g. FECN).
type Control struct {
	Kind  CtlKind
	Bytes int // Credit: freed bytes
	// Dest is, for a Credit, the destination queue (per-destination
	// flow control); for a CFQAlloc, the congestion point.
	Dest int
	CFQ  int // CFQ index at the *sending* (downstream) input port
}

// PacketReceiver consumes packets at the far end of a link direction.
type PacketReceiver interface {
	// ReceivePacket delivers p. cfq is the downstream CFQ index the
	// sender targeted for direct CFQ-to-CFQ forwarding, or -1 to use
	// the normal queue path.
	ReceivePacket(p *pkt.Packet, cfq int)
}

// ControlReceiver consumes control messages at the far end.
type ControlReceiver interface {
	ReceiveControl(m Control)
}

// TamperFunc intercepts a control message about to be transmitted and
// returns the messages actually sent (possibly corrupted or duplicated)
// plus extra propagation delay in cycles. Fault injectors install it;
// credit messages must pass through untouched or the lossless credit
// loop deadlocks (see the fault package's lossless-aware policy).
type TamperFunc func(m Control) (out []Control, extraDelay sim.Cycle)

// Half is one direction of a link: the transmit side owned by a device
// port. Both directions of a physical link are independent Halves with
// identical bandwidth and delay.
type Half struct {
	eng        *sim.Engine
	name       string
	bpc        int
	nominalBPC int
	delay      sim.Cycle
	busyUntil  sim.Cycle
	pktRx      PacketReceiver
	ctlRx      ControlReceiver

	// Fault state. down blocks new transmissions (Free reports false);
	// epoch invalidates in-flight packets: every Send captures the
	// current epoch and the arrival event compares it, so DropInFlight
	// kills exactly the packets on the wire at the moment it is called.
	// The control channel is deliberately unaffected by down/degrade: it
	// models the link-level retry that keeps credit returns reliable on
	// a lossless fabric (dropping credits would wedge the whole loop).
	down   bool
	epoch  uint32
	onDrop func(p *pkt.Packet)
	tamper TamperFunc

	// Closure-free delivery: packets on the wire and control messages in
	// propagation each travel through a sim.Pipe, which requires delivery
	// cycles to be non-decreasing. They are: a packet arrives at
	// busyUntil+delay and busyUntil strictly grows with every Send; a
	// control message arrives at now+delay and the clock never runs
	// backwards. delay is fixed at build, and Degrade only changes the
	// serialization of future sends.
	wire *sim.Pipe[flight]
	ctl  *sim.Pipe[Control]

	// In-flight accounting: bytes/packets sent but not yet arrived
	// (the invariant checker's "on the wire" ledger term).
	inFlightPkts  int
	inFlightBytes int
	droppedPkts   int
	droppedBytes  int

	// Utilization accounting.
	busyCycles sim.Cycle
	sentPkts   int
	sentBytes  int
}

// NewHalf builds a transmit direction with the given bandwidth
// (bytes/cycle) and propagation delay. Receivers are attached later
// with SetReceivers (network assembly wires both directions).
func NewHalf(eng *sim.Engine, name string, bytesPerCycle int, delay sim.Cycle) *Half {
	if bytesPerCycle <= 0 {
		panic("link: bandwidth must be positive")
	}
	if delay < 0 {
		panic("link: negative delay")
	}
	h := &Half{eng: eng, name: name, bpc: bytesPerCycle, nominalBPC: bytesPerCycle, delay: delay}
	h.wire = sim.NewPipe(eng, h.arrive)
	h.ctl = sim.NewPipe(eng, h.deliverControl)
	return h
}

// flight is one packet on the wire. epoch is the direction's epoch at
// send time (see Half.epoch).
type flight struct {
	p     *pkt.Packet
	cfq   int
	epoch uint32
}

// SetReceivers attaches the far-end packet and control consumers.
func (h *Half) SetReceivers(p PacketReceiver, c ControlReceiver) {
	h.pktRx = p
	h.ctlRx = c
}

// BytesPerCycle returns the direction's bandwidth.
func (h *Half) BytesPerCycle() int { return h.bpc }

// Delay returns the propagation delay.
func (h *Half) Delay() sim.Cycle { return h.delay }

// TxCycles returns the serialization time of a packet of `size` bytes.
func (h *Half) TxCycles(size int) sim.Cycle {
	return sim.Cycle((size + h.bpc - 1) / h.bpc)
}

// Free reports whether a new transfer may start now. A downed
// direction is never free: senders keep their packets queued (lossless
// behaviour — a flap stalls traffic, it does not lose it).
func (h *Half) Free(now sim.Cycle) bool { return !h.down && h.busyUntil <= now }

// FreeAt returns the cycle the direction becomes idle.
func (h *Half) FreeAt() sim.Cycle { return h.busyUntil }

// Send starts transmitting p now; the far end receives it after
// serialization plus propagation. cfq targets a downstream CFQ (-1 for
// the normal path). Send panics if the direction is busy — callers must
// arbitrate first, and transmitting over a busy link would corrupt the
// bandwidth model. It returns the cycle at which the tail leaves the
// wire (busy horizon).
func (h *Half) Send(now sim.Cycle, p *pkt.Packet, cfq int) sim.Cycle {
	if !h.Free(now) {
		panic(fmt.Sprintf("link %s: Send at %d while busy until %d", h.name, now, h.busyUntil))
	}
	if h.pktRx == nil {
		panic(fmt.Sprintf("link %s: no packet receiver attached", h.name))
	}
	tx := h.TxCycles(p.Size)
	h.busyUntil = now + tx
	h.busyCycles += tx
	h.sentPkts++
	h.sentBytes += p.Size
	h.inFlightPkts++
	h.inFlightBytes += p.Size
	h.wire.At(h.busyUntil+h.delay, flight{p: p, cfq: cfq, epoch: h.epoch})
	return h.busyUntil
}

// arrive lands the oldest packet on the wire at the far end, unless a
// DropInFlight between send and arrival invalidated its epoch, in which
// case the packet is counted dropped and handed to the drop handler
// (which owns returning the sender's credit and releasing the packet).
func (h *Half) arrive(f flight) {
	p := f.p
	h.inFlightPkts--
	h.inFlightBytes -= p.Size
	if f.epoch != h.epoch {
		h.droppedPkts++
		h.droppedBytes += p.Size
		if h.onDrop != nil {
			h.onDrop(p)
		}
		return
	}
	h.pktRx.ReceivePacket(p, f.cfq)
}

// SetDown fails (true) or restores (false) the direction. While down,
// Free reports false so no new packet starts; packets already on the
// wire still arrive unless DropInFlight is also called (the scripted
// flap policy chooses preserve vs. drop). Control messages keep
// flowing — see the field comment on down.
func (h *Half) SetDown(down bool) { h.down = down }

// Down reports whether the direction is currently failed.
func (h *Half) Down() bool { return h.down }

// DropInFlight invalidates every packet currently on the wire and
// returns how many were condemned; each is delivered to the drop
// handler at its would-be arrival cycle (so ledger accounting stays
// cycle-accurate).
func (h *Half) DropInFlight() int {
	h.epoch++
	return h.inFlightPkts
}

// SetDropHandler installs the consumer of packets condemned by
// DropInFlight. The network installs one that refunds the sender-side
// credit and releases the packet to the pool.
func (h *Half) SetDropHandler(fn func(p *pkt.Packet)) { h.onDrop = fn }

// Degrade reduces the direction's bandwidth to bytesPerCycle (a faulty
// lane / lowered width). In-progress serialization keeps its original
// timing; only future sends see the degraded rate.
func (h *Half) Degrade(bytesPerCycle int) {
	if bytesPerCycle <= 0 {
		panic("link: degraded bandwidth must be positive")
	}
	h.bpc = bytesPerCycle
}

// Restore returns the direction to its nominal bandwidth.
func (h *Half) Restore() { h.bpc = h.nominalBPC }

// NominalBPC returns the as-built bandwidth, ignoring degradation.
func (h *Half) NominalBPC() int { return h.nominalBPC }

// SetControlTamper installs (or, with nil, removes) a control-channel
// fault. While installed every SendControl passes through fn.
func (h *Half) SetControlTamper(fn TamperFunc) { h.tamper = fn }

// InFlight returns the packets and bytes currently on the wire.
func (h *Half) InFlight() (pkts, bytes int) { return h.inFlightPkts, h.inFlightBytes }

// Dropped returns the packets and bytes condemned by DropInFlight.
func (h *Half) Dropped() (pkts, bytes int) { return h.droppedPkts, h.droppedBytes }

// Name returns the direction's diagnostic name.
func (h *Half) Name() string { return h.name }

// BusyCycles returns the cumulative cycles this direction spent
// serializing packets; divided by elapsed time it is the utilization.
func (h *Half) BusyCycles() sim.Cycle { return h.busyCycles }

// Sent returns the packet and byte counts transmitted so far.
func (h *Half) Sent() (pkts, bytes int) { return h.sentPkts, h.sentBytes }

// SendControl delivers m to the far end after the propagation delay,
// consuming no data bandwidth. Only the tamper path keeps per-message
// closures: it adds a per-message extra delay that breaks the FIFO
// argument, and it is off the fault-free hot path.
func (h *Half) SendControl(now sim.Cycle, m Control) {
	if h.ctlRx == nil {
		panic(fmt.Sprintf("link %s: no control receiver attached", h.name))
	}
	if h.tamper == nil {
		h.ctl.At(now+h.delay, m)
		return
	}
	rx := h.ctlRx
	out, extra := h.tamper(m)
	for _, mm := range out {
		mm := mm
		h.eng.At(now+h.delay+extra, func() { rx.ReceiveControl(mm) })
	}
}

// deliverControl hands an untampered control message to the far end.
func (h *Half) deliverControl(m Control) { h.ctlRx.ReceiveControl(m) }
