// Package pkt defines the packet model shared by every component of the
// simulator: data packets carrying FECN congestion marks and BECN
// congestion-notification packets, as specified by the CCFIT paper
// (InfiniBand-style forward/backward explicit congestion notification).
package pkt

import (
	"fmt"

	"repro/internal/sim"
)

// Kind distinguishes data packets from control-plane packets that travel
// in-band (BECNs are real packets consuming link bandwidth).
type Kind uint8

const (
	// Data is an ordinary payload packet generated by a traffic flow.
	Data Kind = iota
	// BECN is a Backward Explicit Congestion Notification returned by a
	// destination to a source after receiving a FECN-marked packet.
	BECN
)

func (k Kind) String() string {
	switch k {
	case Data:
		return "data"
	case BECN:
		return "becn"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// MTU is the maximum transfer unit used throughout the paper's
// evaluation (Table I).
const MTU = 2048

// BECNSize is the size of a congestion notification packet. The paper
// does not state it; 64 bytes (one flit) matches IB CNP practice.
const BECNSize = 64

// Packet is a simulated packet. Packets are passed by pointer and must
// not be aliased into two queues at once.
type Packet struct {
	ID   uint64
	Kind Kind
	Src  int // source endpoint id
	Dst  int // destination endpoint id
	Flow int // flow id for metrics; -1 for BECNs
	Size int // bytes, including header

	// FECN is the Forward Explicit Congestion Notification bit, set by
	// a switch output port in the congestion state.
	FECN bool
	// CongDst is only meaningful for BECN packets: the hot destination
	// whose flow the receiving source must throttle.
	CongDst int

	// Injected is the cycle the packet entered the source AdVOQ;
	// Delivered is set by the sink. Used for latency metrics.
	Injected  sim.Cycle
	Delivered sim.Cycle

	// pooled marks a packet currently sitting on a Pool free-list; it is
	// the double-release detector (Release on a pooled packet panics).
	pooled bool
}

func (p *Packet) String() string {
	m := ""
	if p.FECN {
		m = " FECN"
	}
	return fmt.Sprintf("%s#%d %d->%d flow=%d %dB%s", p.Kind, p.ID, p.Src, p.Dst, p.Flow, p.Size, m)
}

// IDGen hands out unique packet ids. The zero value is ready to use.
type IDGen struct{ next uint64 }

// Next returns a fresh packet id.
func (g *IDGen) Next() uint64 {
	g.next++
	return g.next
}

// NewData builds a data packet.
func NewData(g *IDGen, src, dst, flow, size int, now sim.Cycle) *Packet {
	return (*Pool)(nil).NewData(g, src, dst, flow, size, now)
}

// NewBECN builds a congestion notification packet from node `from`
// (which received a FECN-marked packet addressed to it) back to `to`
// (the marked packet's source). CongDst identifies the flow to slow.
func NewBECN(g *IDGen, from, to, congDst int, now sim.Cycle) *Packet {
	return (*Pool)(nil).NewBECN(g, from, to, congDst, now)
}

// Pool is a deterministic packet free-list. The simulator is
// single-goroutine per engine, so one Pool per network (no sync.Pool,
// whose per-P caches would make reuse order scheduling-dependent)
// recycles every sunk packet back to the injection side and removes the
// dominant allocation site of a run. A nil *Pool is valid and simply
// allocates, so components can be built unpooled (tests, tools).
//
// Ownership rule: a packet obtained from NewData/NewBECN is owned by
// exactly one queue or in-flight event at a time; the final consumer
// (the end-node sink for data, BECN processing for notifications, a
// drop-policy link flap's drop handler) calls Release. Releasing while
// any reference is still live corrupts the simulation — Release scrubs
// the packet so stale readers fail loudly rather than silently aliasing
// two live packets. The pool is also the fabric's conservation ledger:
// it counts the bytes it has handed out and not got back (BytesOut),
// and the invariant checker requires that to equal the bytes buffered
// in nodes, switches and links at every audit, so a packet leaked,
// released early or minted behind the fabric's back fails the run.
type Pool struct {
	free []*Packet
	out  int // bytes handed out by NewData/NewBECN and not yet released

	// Allocs counts packets newly allocated; Reuses counts packets
	// served from the free-list; Releases counts packets returned.
	Allocs, Reuses, Releases int
}

// get hands out a packet of size bytes, counting them out.
func (pl *Pool) get(size int) *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.out += size
	if len(pl.free) == 0 {
		pl.Allocs++
		return &Packet{}
	}
	n := len(pl.free) - 1
	p := pl.free[n]
	pl.free[n] = nil
	pl.free = pl.free[:n]
	pl.Reuses++
	return p
}

// Release returns p to the free-list. Safe on a nil pool or packet.
// Releasing the same packet twice panics: a double release would put
// two aliases of one Packet on the free-list and silently corrupt two
// future packets, so the ownership bug must fail loudly at its source
// (this matters on the fault paths, where a link-flap drop handler and
// a confused component could otherwise both claim the final release).
func (pl *Pool) Release(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	if p.pooled {
		panic(fmt.Sprintf("pkt: double release of %s (already on free-list)", p))
	}
	pl.out -= p.Size
	*p = Packet{pooled: true} // scrub: use-after-release reads zeros, not stale state
	pl.free = append(pl.free, p)
	pl.Releases++
}

// FreeLen returns the current free-list depth (tests, diagnostics).
func (pl *Pool) FreeLen() int {
	if pl == nil {
		return 0
	}
	return len(pl.free)
}

// BytesOut returns the bytes of every packet handed out and not yet
// released: the bytes the fabric must be holding. 0 on a nil pool.
func (pl *Pool) BytesOut() int {
	if pl == nil {
		return 0
	}
	return pl.out
}

// NewData builds a data packet, reusing a released one when possible.
func (pl *Pool) NewData(g *IDGen, src, dst, flow, size int, now sim.Cycle) *Packet {
	p := pl.get(size)
	*p = Packet{
		ID:       g.Next(),
		Kind:     Data,
		Src:      src,
		Dst:      dst,
		Flow:     flow,
		Size:     size,
		Injected: now,
	}
	return p
}

// NewBECN builds a congestion notification packet, reusing a released
// one when possible. See the package function NewBECN for semantics.
func (pl *Pool) NewBECN(g *IDGen, from, to, congDst int, now sim.Cycle) *Packet {
	p := pl.get(BECNSize)
	*p = Packet{
		ID:       g.Next(),
		Kind:     BECN,
		Src:      from,
		Dst:      to,
		Flow:     -1,
		Size:     BECNSize,
		CongDst:  congDst,
		Injected: now,
	}
	return p
}
