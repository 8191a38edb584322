// Package mailviol seeds violations of the mailbox-order half of the
// partition-safety rule: sim.Mailbox.Drain must only be called from a loop over an
// index-ordered collection.
package mailviol

import "repro/internal/sim"

// Barrier drains in dense index order: the blessed pattern.
func Barrier(boxes []*sim.Mailbox[int]) {
	for _, mb := range boxes {
		mb.Drain()
	}
}

// BarrierIndexed uses a three-clause loop; the index fixes the order.
func BarrierIndexed(boxes []*sim.Mailbox[int]) {
	for i := 0; i < len(boxes); i++ {
		boxes[i].Drain()
	}
}

// AdHoc drains one mailbox from a bare call site: the next refactor
// can reorder it against other drains without any diff noise.
func AdHoc(mb *sim.Mailbox[int]) {
	mb.Drain() // want partition-safety "index-ordered loop"
}

// Conditional drains from a branch, so whether this mailbox's events
// precede another's depends on control flow, not on index order.
func Conditional(a, b *sim.Mailbox[int], swap bool) {
	if swap {
		b.Drain() // want partition-safety "index-ordered loop"
	}
	a.Drain() // want partition-safety "index-ordered loop"
}
