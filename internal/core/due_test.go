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
	d     QDisc
	env   *fakeEnv
	skip  bool
	until sim.Cycle // skipping while now < until
	log   testutil.Digest
}

func (h *host) touch(now sim.Cycle) {
	if h.until != 0 {
		h.d.Resume(now)
		h.until = 0
	}
}

func (h *host) tick(now sim.Cycle) {
	if now < h.until {
		return
	}
	h.touch(now)
	acted := h.d.Post(now)
	acted = h.d.Update(now) || acted
	if h.skip && !acted {
		if due := h.d.NextDue(now); due > now {
			h.until = due
		}
	}
}

func (h *host) state(now sim.Cycle) {
	h.log.Addf("%d stats %+v used %d up %v x %v", now, *h.d.Stats(), h.d.UsedBytes(), h.env.upstream, h.env.crossings)
	for _, r := range h.d.Requests(now, nil) {
		h.log.Addf("  req q%d out%d pkt %d direct %d", r.QID, r.Out, r.Pkt.ID, r.DirectCFQ)
	}
	if u, ok := h.d.(*IsolationUnit); ok && now%64 == 0 {
		// LastActive is only comparable where the replay has caught up.
		h.touch(now + 1)
		for i := 0; i < u.p.NumCFQs; i++ {
			if line, dests, ok := u.LineInfo(i); ok {
				h.log.Addf("  line %d %+v %v", i, line, dests)
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
			run := func(skip bool) (string, int) {
				p := preset
				rng := rand.New(rand.NewSource(7))
				env := newFakeEnv()
				h := &host{d: NewQDisc(&p, env, 4, 8), env: env, skip: skip}
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
		})
	}
}
