// Package buffer provides the byte-accounted FIFO queues and the shared
// per-port RAM pool used by switch input ports and input adapters. The
// paper's ports hold a single RAM dynamically organised into queues
// (NFQ + CFQs, VOQs, ...); admission is governed by free bytes in the
// whole RAM, while each queue tracks its own occupancy for threshold
// logic (detection, Stop/Go, High/Low).
package buffer

import (
	"fmt"

	"repro/internal/pkt"
)

// Queue is a FIFO of packets with byte-occupancy accounting. The zero
// value is an unpooled queue; NewQueue and NewQueues build queues that
// share a RAM's byte pool.
type Queue struct {
	ram   *RAM
	pkts  []*pkt.Packet // ring buffer
	head  int
	count int
	bytes int
}

// NewQueue returns an empty queue drawing from ram (nil for unpooled).
func NewQueue(ram *RAM) *Queue { return &Queue{ram: ram} }

// NewQueues returns n empty queues drawing from ram, held by value in one
// allocation (a port's queue bank).
func NewQueues(n int, ram *RAM) []Queue {
	qs := make([]Queue, n)
	for i := range qs {
		qs[i].ram = ram
	}
	return qs
}

// Len returns the number of queued packets.
func (q *Queue) Len() int { return q.count }

// Bytes returns the queued byte count.
func (q *Queue) Bytes() int { return q.bytes }

// Empty reports whether the queue holds no packets.
func (q *Queue) Empty() bool { return q.count == 0 }

// Head returns the packet at the front without removing it, or nil.
func (q *Queue) Head() *pkt.Packet {
	if q.count == 0 {
		return nil
	}
	return q.pkts[q.head]
}

// At returns the i-th queued packet (0 = head). Used by detection scans.
func (q *Queue) At(i int) *pkt.Packet {
	if i < 0 || i >= q.count {
		return nil
	}
	return q.pkts[(q.head+i)%len(q.pkts)]
}

// Push appends p. It accounts p.Size bytes against the shared RAM; the
// caller must have checked admission (RAM.Free) first — Push panics on
// pool overflow, because losing a packet would silently violate the
// lossless-network invariant.
func (q *Queue) Push(p *pkt.Packet) {
	if q.ram != nil {
		q.ram.take(p.Size)
	}
	if q.count == len(q.pkts) {
		q.grow()
	}
	q.pkts[(q.head+q.count)%len(q.pkts)] = p
	q.count++
	q.bytes += p.Size
}

// Pop removes and returns the head packet, releasing its bytes back to
// the RAM pool. Returns nil when empty.
func (q *Queue) Pop() *pkt.Packet {
	if q.count == 0 {
		return nil
	}
	p := q.pkts[q.head]
	q.pkts[q.head] = nil
	q.head = (q.head + 1) % len(q.pkts)
	q.count--
	q.bytes -= p.Size
	if q.ram != nil {
		q.ram.give(p.Size)
	}
	q.maybeShrink()
	return p
}

// TransferHead moves the head packet of q to the tail of dst without
// touching RAM accounting when both share the same pool (the paper's
// post-processing move: NFQ -> CFQ inside one port RAM). If the pools
// differ it is equivalent to dst.Push(q.Pop()).
func (q *Queue) TransferHead(dst *Queue) *pkt.Packet {
	if q.count == 0 {
		return nil
	}
	if q.ram == dst.ram && q.ram != nil {
		p := q.pkts[q.head]
		q.pkts[q.head] = nil
		q.head = (q.head + 1) % len(q.pkts)
		q.count--
		q.bytes -= p.Size
		q.maybeShrink()
		if dst.count == len(dst.pkts) {
			dst.grow()
		}
		dst.pkts[(dst.head+dst.count)%len(dst.pkts)] = p
		dst.count++
		dst.bytes += p.Size
		return p
	}
	p := q.Pop()
	if p != nil {
		dst.Push(p)
	}
	return p
}

// minRing is the smallest ring allocated; rings never shrink below it.
// It covers the deepest queue MTU traffic can build (a 64 KB port RAM
// holds 32 MTU packets, an AdVOQ 16), so in the paper's configurations
// a ring is allocated once and steady state never resizes it.
const minRing = 32

func (q *Queue) grow() {
	n := len(q.pkts) * 2
	if n == 0 {
		n = minRing
	}
	np := make([]*pkt.Packet, n)
	for i := 0; i < q.count; i++ {
		np[i] = q.pkts[(q.head+i)%len(q.pkts)]
	}
	q.pkts = np
	q.head = 0
}

// maybeShrink halves the ring once a drain leaves it at most quarter
// full, so long-lived idle ports do not pin one burst's peak ring for
// the rest of the run. The quarter-fill hysteresis keeps a queue that
// oscillates around a size from thrashing between grow and shrink.
func (q *Queue) maybeShrink() {
	n := len(q.pkts)
	if n <= minRing || q.count > n/4 {
		return
	}
	np := make([]*pkt.Packet, n/2)
	for i := 0; i < q.count; i++ {
		np[i] = q.pkts[(q.head+i)%n]
	}
	q.pkts = np
	q.head = 0
}

// RingCap returns the current ring allocation (tests, diagnostics).
func (q *Queue) RingCap() int { return len(q.pkts) }

// RAM is a shared byte pool modelling one port memory (Table I: 64 KB
// per input port). Queues drawing from it account their packets here;
// admission control compares incoming packet sizes against Free.
type RAM struct {
	capacity int
	used     int
}

// NewRAM returns a pool of the given capacity in bytes.
func NewRAM(capacity int) *RAM { return &RAM{capacity: capacity} }

// Capacity returns the total pool size in bytes.
func (r *RAM) Capacity() int { return r.capacity }

// Used returns the bytes currently held by queues on this pool.
func (r *RAM) Used() int { return r.used }

// Free returns the available bytes.
func (r *RAM) Free() int { return r.capacity - r.used }

// Fits reports whether a packet of the given size can be admitted.
func (r *RAM) Fits(size int) bool { return size <= r.Free() }

func (r *RAM) take(n int) {
	if n > r.Free() {
		panic(fmt.Sprintf("buffer: RAM overflow: take %d with %d free (lossless invariant violated)", n, r.Free()))
	}
	r.used += n
}

func (r *RAM) give(n int) {
	if n > r.used {
		panic(fmt.Sprintf("buffer: RAM underflow: give %d with %d used", n, r.used))
	}
	r.used -= n
}
