package endnode

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// edgeRig is one node under a scripted scenario, its uplink ending in a
// transcript of what arrives when. With everyCycle set the skip is
// defeated — resume runs before every cycle — so every tick runs as it
// did before nodes could skip: the stepped reference the skipping run
// must match to the cycle.
type edgeRig struct {
	t       *testing.T
	eng     *sim.Engine
	n       *Node
	ids     pkt.IDGen
	log     strings.Builder
	skipped int  // cycles spent skipping
	stepped bool // the reference: never skips, so never sleeps
}

// mustSleep requires the node to be asleep behind a deadline still to
// come: what follows starts from a sleeping node.
func (r *edgeRig) mustSleep(before string) {
	r.t.Helper()
	n := r.n
	if !r.stepped && (n.h.Awake() || n.skipUntil <= r.eng.Now()) {
		r.t.Fatalf("cycle %d: node not asleep before %s (skipUntil %d)", r.eng.Now(), before, n.skipUntil)
	}
}

func (r *edgeRig) ReceivePacket(p *pkt.Packet, cfq int) {
	fmt.Fprintf(&r.log, "%d pkt %d kind %v dst %d cfq %d\n", r.eng.Now(), p.ID, p.Kind, p.Dst, cfq)
}

func (r *edgeRig) ReceiveControl(m link.Control) {
	fmt.Fprintf(&r.log, "%d ctl %v bytes %d\n", r.eng.Now(), m.Kind, m.Bytes)
}

func newEdgeRig(t *testing.T, p core.Params, credits int, everyCycle bool) *edgeRig {
	r := &edgeRig{t: t, eng: sim.NewEngine(3), stepped: everyCycle}
	r.n = New(r.eng, 0, &p, 8, &r.ids, nil)
	tx := link.NewHalf(r.eng, "up", 64, 2)
	tx.SetReceivers(r, r)
	r.n.AttachLink(tx, core.NewSharedCredits(credits))
	r.eng.AddTicker(sim.PhaseInject, func(now sim.Cycle) {
		if everyCycle {
			r.n.resume()
		}
		if now < r.n.skipUntil {
			r.skipped++
		}
	})
	return r
}

func (r *edgeRig) offer(dst, count int) {
	for i := 0; i < count; i++ {
		if !r.n.Offer(pkt.NewData(&r.ids, 0, dst, dst, pkt.MTU, r.eng.Now())) {
			r.t.Fatalf("offer to %d refused", dst)
		}
	}
}

func (r *edgeRig) becns(dst, count int) {
	for i := 0; i < count; i++ {
		r.n.ReceivePacket(pkt.NewBECN(&r.ids, dst, 0, dst, r.eng.Now()), -1)
	}
}

// stepSends steps one cycle and requires exactly k packets put on the
// wire in it.
func (r *edgeRig) stepSends(k int, why string) {
	r.t.Helper()
	before, at := r.n.stats.Sent, r.eng.Now()
	r.eng.Step()
	if got := r.n.stats.Sent - before; got != k {
		r.t.Fatalf("cycle %d: %d sends, want %d: %s", at, got, k, why)
	}
}

func (r *edgeRig) transcript() string {
	st := *r.n.Stats()
	st.CyclesElided = 0
	fmt.Fprintf(&r.log, "end %d stats %+v disc %+v used %d\n", r.eng.Now(), st, *r.n.disc.Stats(), r.n.disc.UsedBytes())
	return r.log.String()
}

// The edge table: each scenario runs on the skipping node and on the
// stepped reference and must leave the same transcript; the assertions
// inside a scenario hold on both.
func TestSkipEdges(t *testing.T) {
	for _, sc := range []struct {
		name    string
		params  core.Params
		credits int
		script  func(r *edgeRig)
	}{
		{
			// ThrottleStalls keeps its every-cycle value across a skip,
			// and a CCTI_Timer expiry that opens the IRD gate injects in
			// its own cycle: CCTI 20 gates the second packet until 320,
			// the expiry at 312 lowers that to 304.
			name: "throttle, ccti timer", params: core.PresetCCFIT(), credits: 64 << 10,
			script: func(r *edgeRig) {
				r.becns(4, 20)
				r.offer(4, 3)
				r.eng.Run(100)
				stalls := r.n.Stats().ThrottleStalls
				r.eng.RunFor(150)
				if got := r.n.Stats().ThrottleStalls - stalls; got != 150 {
					r.t.Fatalf("%d ThrottleStalls over 150 gated cycles", got)
				}
				r.eng.Run(r.n.p.CCTITimer)
				r.mustSleep("the CCTI_Timer expiry, ahead of the gate's deadline")
				if r.n.stats.Sent != 1 || r.n.throttler.CCTI(4) != 20 {
					r.t.Fatalf("cycle %d: sent %d, CCTI %d", r.eng.Now(), r.n.stats.Sent, r.n.throttler.CCTI(4))
				}
				r.stepSends(1, "the expiry opened the gate this cycle")
				r.eng.RunFor(1500)
			},
		},
		{
			// A node blocked on credits sends in the very cycle one
			// arrives; a Pause issued mid-skip holds the next one back to
			// the cycle it ends.
			name: "credit, pause", params: core.Preset1Q(), credits: 2 * pkt.MTU,
			script: func(r *edgeRig) {
				r.offer(3, 6)
				r.eng.Run(400)
				if r.n.stats.Sent != 2 {
					r.t.Fatalf("sent %d with 2 MTUs of credit", r.n.stats.Sent)
				}
				r.mustSleep("the credit")
				if got := r.n.DescribeState(r.eng.Now()); !r.stepped && !strings.Contains(got, "node0: [asleep until an event] out=8192B") {
					r.t.Fatalf("a node only a credit can move describes itself as %q", got)
				}
				r.n.ReceiveControl(link.Control{Kind: link.Credit, Bytes: pkt.MTU, Dest: 3})
				r.stepSends(1, "credit arrived this cycle")
				r.eng.RunFor(100)
				r.mustSleep("the pause")
				r.n.Pause(60)
				r.eng.RunFor(20)
				r.mustSleep("the credit under pause")
				r.n.ReceiveControl(link.Control{Kind: link.Credit, Bytes: pkt.MTU, Dest: 3})
				r.stepSends(0, "paused")
				r.eng.Run(r.n.PausedUntil())
				r.stepSends(1, "first cycle after the pause")
				r.eng.RunFor(200)
			},
		},
		{
			// The IA's own isolation unit: traffic held by a CFQStop goes
			// the cycle the Go arrives, and the drained line deallocates
			// at LastActive+HoldDown with the node skipping in between.
			name: "ia cfq go, hold-down", params: core.PresetCCFIT(), credits: 64 << 10,
			script: func(r *edgeRig) {
				r.n.ReceiveControl(link.Control{Kind: link.CFQAlloc, CFQ: 1, Dests: []int{5}})
				r.n.ReceiveControl(link.Control{Kind: link.CFQStop, CFQ: 1})
				r.offer(5, 3)
				r.eng.Run(500)
				if r.n.stats.Sent > 1 {
					r.t.Fatalf("%d packets escaped a stopped CFQ", r.n.stats.Sent)
				}
				held := r.n.stats.Sent
				r.mustSleep("the CFQGo")
				r.n.ReceiveControl(link.Control{Kind: link.CFQGo, CFQ: 1})
				r.stepSends(1, "Go arrived this cycle")
				iso := r.n.disc.(*core.IsolationUnit)
				for iso.UsedBytes() > 0 {
					r.eng.Step()
				}
				line, _, ok := iso.LineInfo(0)
				if !ok || r.n.stats.Sent != 3 || held > 1 {
					r.t.Fatalf("line %+v ok=%v, sent %d", line, ok, r.n.stats.Sent)
				}
				r.offer(2, 1) // keeps the node awake, on another path
				r.eng.Run(line.LastActive + r.n.p.HoldDown)
				if iso.ActiveLines() != 1 {
					r.t.Fatal("line gone before its hold-down")
				}
				r.eng.Step()
				if iso.ActiveLines() != 0 {
					r.t.Fatal("line still there at LastActive+HoldDown")
				}
			},
		},
		{
			// Nobody announces a downed uplink's return: the node polls it
			// and sends in the very cycle it is back. A refund for a packet
			// the flap dropped ends a skip like any credit.
			name: "uplink flap", params: core.Preset1Q(), credits: 3 * pkt.MTU,
			script: func(r *edgeRig) {
				r.offer(3, 6)
				r.eng.Run(40)
				r.n.tx.SetDown(true)
				r.eng.RunFor(200)
				if r.n.stats.Sent != 2 {
					r.t.Fatalf("sent %d, want the second packet's tail then nothing", r.n.stats.Sent)
				}
				r.n.tx.SetDown(false)
				r.stepSends(1, "uplink back this cycle")
				r.eng.RunFor(300)
				r.mustSleep("the refund")
				r.n.RefundCredit(3, pkt.MTU)
				r.stepSends(1, "refund arrived this cycle")
				r.eng.RunFor(100)
				// A flap the sleeping node never sees: it waits for credit,
				// not for the link, and goes the cycle credit comes.
				r.mustSleep("the flap")
				r.n.tx.SetDown(true)
				r.eng.RunFor(50)
				r.n.tx.SetDown(false)
				r.eng.RunFor(50)
				r.mustSleep("the credit after the flap")
				r.n.ReceiveControl(link.Control{Kind: link.Credit, Bytes: pkt.MTU, Dest: 3})
				r.stepSends(1, "credit arrived this cycle")
				r.eng.RunFor(100)
			},
		},
		{
			// A FECN-marked delivery queues a BECN mid-skip: it leaves at
			// once, ahead of the data the throttle holds back.
			name: "becn mid-skip", params: core.PresetCCFIT(), credits: 64 << 10,
			script: func(r *edgeRig) {
				r.becns(4, 60)
				r.offer(4, 2)
				r.eng.Run(200)
				p := pkt.NewData(&r.ids, 6, 0, 6, pkt.MTU, r.eng.Now())
				p.FECN = true
				r.mustSleep("the FECN-marked delivery")
				r.n.ReceivePacket(p, -1)
				r.stepSends(1, "the BECN goes the cycle it is generated")
				r.eng.RunFor(1200)
			},
		},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			skipping := newEdgeRig(t, sc.params, sc.credits, false)
			sc.script(skipping)
			stepped := newEdgeRig(t, sc.params, sc.credits, true)
			sc.script(stepped)
			if got, want := skipping.transcript(), stepped.transcript(); got != want {
				t.Fatalf("skipping run differs from the stepped reference: %s", testutil.FirstDiff(got, want))
			}
			if stepped.skipped != 0 || skipping.skipped < 100 {
				t.Fatalf("skipped %d cycles (reference %d): scenario did not exercise the skip", skipping.skipped, stepped.skipped)
			}
			if got := skipping.n.Stats().CyclesElided; got != skipping.skipped {
				t.Fatalf("CyclesElided %d, node skipped %d cycles", got, skipping.skipped)
			}
		})
	}
}
