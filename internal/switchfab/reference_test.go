package switchfab

import (
	"math/bits"

	"repro/internal/sim"
)

// RefCounts says how much skipped work a reference has executed on the
// side, by kind — a suite that checked nothing proves nothing.
type RefCounts struct {
	Posts, Updates, Scans, Drains int
	// Naps counts the whole switch ticks a nap skipped.
	Naps int
}

// InstallReference arms the test-only reference of the port-granular
// elision on s (exported to the external test package, whose suites
// build whole networks and so cannot live in this one). Wherever a tick
// skips work the reference runs that work on the side:
//
//   - a cool port's Post and Update, which must report no action, move
//     no counter and leave NextDue alone (a failed detection scan bumps
//     only the retry cycle, and NextDue is where that shows);
//   - a parked port's request scan, which must yield nothing grantable;
//   - the drain of every staged output, whose link must not be free;
//   - every tick of a napping switch, from a ticker of the reference's
//     own: the checks above, and napIdle — nothing hot or due, no
//     stall, every port the scan would visit crossing the crossbar.
//
// The side Update stamps LastActive on lines holding bytes, which is
// exactly what Resume replays, so the run under reference stays
// byte-identical. fail reports a violation (t.Errorf-shaped).
func InstallReference(s *Switch, fail func(format string, args ...any)) *RefCounts {
	c := &RefCounts{}
	// Registered after the switch, the ticker below runs after its tick;
	// nothing else touches a switch during the device phase. The ports cool
	// now, and not cooled by this very tick, are the ports update skipped, in
	// the state it skipped them in. The ports post skipped are those cool
	// between post and the scan, which may heat one (start): arbitrate's
	// hook runs them — or, where that was not called (a stall), the ticker.
	posted := sim.Cycle(-1) // the last cycle the skipped Posts were run in
	cool := func(now sim.Cycle, post bool) {
		if post {
			posted = now
		}
		for cool := s.liveIn &^ s.hot; cool != 0; cool &= cool - 1 {
			i := bits.TrailingZeros64(cool)
			ip := s.in[i]
			if ip.coolAt == now {
				continue
			}
			if ip.due <= now {
				fail("%s p%d cycle %d: cool past its deadline %d", s.name, i, now, ip.due)
			}
			before, due := *ip.disc.Stats(), ip.disc.NextDue(now)
			var acted bool
			if post {
				acted = ip.disc.Post(now)
				c.Posts++
			} else {
				acted = ip.disc.Update(now)
				c.Updates++
			}
			if acted || before != *ip.disc.Stats() || due != ip.disc.NextDue(now) {
				fail("%s p%d cycle %d: elided tick (post: %v) acted=%v stats %+v -> %+v due %d -> %d",
					s.name, i, now, post, acted, before, *ip.disc.Stats(), due, ip.disc.NextDue(now))
			}
		}
	}
	s.eng.AddTicker(sim.PhaseDevice, func(now sim.Cycle) {
		if s.napAt != 0 && s.napAt <= now {
			c.Naps++
			if why := s.napIdle(now); why != "" {
				fail("%s cycle %d: %s", s.name, now, why)
			}
			s.ref(now)
		} else if posted != now {
			cool(now, true)
		}
		cool(now, false)
	})
	s.ref = func(now sim.Cycle) {
		cool(now, true)
		for parked := s.parked; parked != 0; parked &= parked - 1 {
			i := bits.TrailingZeros64(parked)
			ip := s.in[i]
			c.Scans++
			for _, r := range ip.disc.Requests(now, nil) {
				op := s.out[r.Out]
				if op.tx != nil && op.nstaged+op.inflight < stageCap && op.credits.Avail(r.Pkt.Dst) >= r.Pkt.Size {
					fail("%s p%d cycle %d: parked with a grantable request %v -> out%d", s.name, i, now, r.Pkt, r.Out)
				}
			}
			if ip.busyUntil > now {
				fail("%s p%d cycle %d: parked while crossing the crossbar", s.name, i, now)
			}
		}
		for outs := s.stagedOut; outs != 0; outs &= outs - 1 {
			op := s.out[bits.TrailingZeros64(outs)]
			c.Drains++
			if op.tx.Free(now) {
				fail("%s out%d cycle %d: staged packet not drained onto a free link (drainDue %d)", s.name, op.idx, now, s.drainDue)
			}
		}
	}
	return c
}
