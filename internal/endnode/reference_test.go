package endnode

import "repro/internal/sim"

// InstallReference arms the test-only reference of the node skip on n
// (exported to the external test package, whose suite builds whole
// networks and so cannot live in this one) and returns the count of
// skipped cycles it checked. On every cycle the node sleeps through, a
// ticker of the reference's own runs its tick on the side: no pending
// BECN may fit the output buffer, the predicate AdVOQ scan may pick
// nothing and must see the throttle stall the skip repeats, the uplink
// may carry nothing the credits allow, and the output buffer's Post and
// Update must report no action, move no counter and leave NextDue alone.
// The side Update stamps LastActive on lines holding bytes, which is
// exactly what Resume replays, so the run under reference stays
// byte-identical. fail reports a violation (t.Errorf-shaped).
func InstallReference(n *Node, fail func(format string, args ...any)) *int {
	checked := new(int)
	// Registered after the node, this runs after its tick would; skipUntil
	// only moves in update or before the phases, so now < skipUntil says
	// that tick is slept through, in the state seen here — but for the
	// cycle whose update decided the skip (quietAt), which did tick.
	n.eng.AddTicker(sim.PhaseDevice, func(now sim.Cycle) {
		if now >= n.skipUntil || now == n.quietAt {
			return
		}
		*checked++
		if h := n.pending.Head(); h != nil && n.disc.Fits(h.Size) {
			fail("node%d cycle %d: skipped with a pending BECN that fits", n.id, now)
		}
		pick, stalled := -1, false
		if n.occupied.Len() > 0 && n.stageHasRoom() {
			pick, stalled = refPickAdVOQ(n, now)
		}
		if pick >= 0 || stalled != n.stalled {
			fail("node%d cycle %d: skipped with AdVOQ %d injectable, stalled %v (skip repeats %v)", n.id, now, pick, stalled, n.stalled)
		}
		before, due := *n.disc.Stats(), n.disc.NextDue(now)
		acted := n.disc.Post(now)
		if now >= n.pausedUntil && n.tx.Free(now) && n.disc.UsedBytes() > 0 {
			for _, r := range n.disc.Requests(now, nil) {
				if r.Pkt.Size <= n.credits.Avail(r.Pkt.Dst) {
					fail("node%d cycle %d: skipped with %v sendable", n.id, now, r.Pkt)
				}
			}
		}
		acted = n.disc.Update(now) || acted
		if acted || before != *n.disc.Stats() || due != n.disc.NextDue(now) {
			fail("node%d cycle %d: elided ticks acted=%v stats %+v -> %+v due %d -> %d",
				n.id, now, acted, before, *n.disc.Stats(), due, n.disc.NextDue(now))
		}
	})
	return checked
}
