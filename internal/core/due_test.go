package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// host drives one discipline the way a port does, optionally honouring
// the skip contract of QDisc: after a cycle in which neither Post nor
// Update acted it runs neither until NextDue, and an event (Enqueue, Pop,
// a change of the downstream lines) calls Resume first and ends the skip.
type host struct {
	t     *testing.T
	d     QDisc
	env   *fakeEnv
	skip  bool
	until sim.Cycle // skipping while now < until
	log   testutil.Digest

	// The two quiescence contracts against each other (see state).
	ticked, acted          bool // this cycle: Post and Update ran; one of them acted
	quiescent, afterActing int  // states with Quiescent(); those reached in an acting cycle
}

func (h *host) touch(now sim.Cycle) {
	if h.until != 0 {
		h.d.Resume(now)
		h.until = 0
	}
}

func (h *host) tick(now sim.Cycle) {
	h.ticked = now >= h.until
	if !h.ticked {
		return
	}
	h.touch(now)
	acted := h.d.Post(now)
	acted = h.d.Update(now) || acted
	h.acted = acted
	if h.skip && !acted {
		if due := h.d.NextDue(now); due > now {
			h.until = due
		}
	}
}

func (h *host) state(now sim.Cycle) {
	// Quiescent() (PR 2, whole-device sleep) is derivable from the step
	// contract (PR 17): it implies "no bytes held, nothing due" in every
	// state, and is implied by it after any cycle in which neither Post
	// nor Update acted. What separates the two is only when the answer
	// is available: Quiescent() is already true at the end of the cycle
	// whose Update released the last line, the derived form one
	// non-acting tick later (DESIGN.md §5).
	derived := h.d.UsedBytes() == 0 && h.d.NextDue(now) == sim.Never
	switch q := h.d.Quiescent(); {
	case q && !derived:
		h.t.Fatalf("cycle %d: Quiescent() with %d bytes held, next due %d", now, h.d.UsedBytes(), h.d.NextDue(now))
	case !q && derived && h.ticked && !h.acted:
		h.t.Fatalf("cycle %d: nothing held, nothing due and nothing done this cycle, yet not Quiescent()", now)
	case q:
		h.quiescent++
		if h.ticked && h.acted {
			h.afterActing++
		}
	}
	h.log.Addf("%d stats %+v used %d up %v x %v", now, *h.d.Stats(), h.d.UsedBytes(), h.env.upstream, h.env.crossings)
	for _, r := range h.d.Requests(now, nil) {
		h.log.Addf("  req q%d out%d pkt %d direct %d", r.QID, r.Out, r.Pkt.ID, r.DirectCFQ)
	}
	if u, ok := h.d.(*IsolationUnit); ok && now%64 == 0 {
		// LastActive is only comparable where the replay has caught up.
		h.touch(now + 1)
		for i := 0; i < u.p.NumCFQs; i++ {
			if line, ok := u.LineInfo(i); ok {
				h.log.Addf("  line %d %+v", i, line)
			}
		}
	}
}

// A host that skips by the contract sees, cycle for cycle, what a host
// that ticks every cycle sees: same counters, same upstream messages,
// same crossings, same requests — over random arrivals, pops, Stop/Go
// and line churn downstream, with long quiet stretches in between, for
// the dynamic discipline (small CAM, so it exhausts) and the static ones.
func TestSkippingByNextDueEqualsEveryCycle(t *testing.T) {
	for _, preset := range []Params{PresetCCFIT(), PresetFBICM(), PresetITh(), Preset1Q(), PresetVOQnet()} {
		preset := preset
		t.Run(preset.Name, func(t *testing.T) {
			var acting int // Quiescent() states only an acting cycle's Update produced
			var isolates bool
			run := func(skip bool) (string, int) {
				p := preset
				rng := rand.New(rand.NewSource(7))
				env := newFakeEnv()
				h := &host{t: t, d: NewQDisc(&p, env, 4, 8), env: env, skip: skip}
				var g pkt.IDGen
				skipped := 0
				for now := sim.Cycle(0); now < 30_000; now++ {
					// Bursts of events, then silence long enough for
					// hold-downs and detection retries to come due.
					if busy := now%1500 < 500; busy && rng.Intn(4) == 0 {
						switch rng.Intn(6) {
						case 0, 1:
							dst := []int{1, 2, 3, 5, 6}[rng.Intn(5)]
							if q := pkt.NewData(&g, 0, dst, 0, pkt.MTU, now); h.d.Fits(q.Size) {
								h.touch(now)
								h.d.Enqueue(q, rng.Intn(3)-1)
							}
						case 2, 3:
							if reqs := h.d.Requests(now, nil); len(reqs) > 0 {
								h.touch(now)
								h.d.Pop(reqs[rng.Intn(len(reqs))].QID)
							}
						case 4:
							h.touch(now)
							dst := []int{1, 2, 3, 5, 6}[rng.Intn(5)]
							env.outLines[[2]int{dst % 4, dst}] = outLineState{stopped: rng.Intn(2) == 0, downCFQ: rng.Intn(2)}
						case 5:
							h.touch(now)
							dst := []int{1, 2, 3, 5, 6}[rng.Intn(5)]
							delete(env.outLines, [2]int{dst % 4, dst})
						}
					}
					if now < h.until {
						skipped++
					}
					h.tick(now)
					h.state(now)
				}
				h.log.Addf("final %s", fmt.Sprint(*h.d.Stats()))
				if h.quiescent < 1_000 {
					t.Fatalf("only %d quiescent states reached", h.quiescent)
				}
				acting = h.afterActing
				_, isolates = h.d.(*IsolationUnit)
				return h.log.String(), skipped
			}
			every, _ := run(false)
			skipping, skipped := run(true)
			if every != skipping {
				t.Fatalf("skipping host diverged: %s", testutil.FirstDiff(skipping, every))
			}
			if skipped < 10_000 {
				t.Fatalf("only %d of 30000 cycles skipped", skipped)
			}
			// Only the isolation unit turns quiescent by acting — the
			// Update that releases its last line. (VOQsw clears a mark at
			// Low, before its RAM is empty; the plain banks never act.)
			if isolates != (acting > 0) {
				t.Fatalf("%d Quiescent() states came out of an acting cycle", acting)
			}
		})
	}
}
