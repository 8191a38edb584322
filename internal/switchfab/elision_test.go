package switchfab

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// tape is a peer that writes everything a switch port sends, with the
// cycle it arrives, into the rig's transcript.
type tape struct {
	r    *edgeRig
	port int
}

func (p tape) ReceivePacket(q *pkt.Packet, cfq int) {
	fmt.Fprintf(&p.r.log, "%d out%d pkt %d dst %d cfq %d fecn %v\n", p.r.eng.Now(), p.port, q.ID, q.Dst, cfq, q.FECN)
}

func (p tape) ReceiveControl(m link.Control) {
	fmt.Fprintf(&p.r.log, "%d out%d ctl %v bytes %d cfq %d dests %v\n", p.r.eng.Now(), p.port, m.Kind, m.Bytes, m.CFQ, m.Dests)
}

// edgeRig is one switch under a scripted scenario. With everyCycle set
// the elision is defeated — before every cycle the switch is roused,
// each live port is heated and unparked and the drain poll is due — so
// every Post, Update, request scan and drain runs as it did before ports
// could cool or park and switches nap: the stepped reference the elided
// run must match to the cycle.
type edgeRig struct {
	t          *testing.T
	eng        *sim.Engine
	sw         *Switch
	everyCycle bool
	ids        pkt.IDGen
	log        strings.Builder
	// cooled and parked count port-cycles spent cool / parked, napped the
	// switch's ticks a nap skipped.
	cooled, parked, napped int
	stalls                 int // CreditStalls as last read mid-cycle
}

func newEdgeRig(t *testing.T, params core.Params, nports, xbar, credits int, everyCycle bool) *edgeRig {
	r := &edgeRig{t: t, eng: sim.NewEngine(9), everyCycle: everyCycle}
	r.sw = New(r.eng, 100, "sw", nports, &params, func(d int) int { return d % nports }, 16, xbar)
	for i := 0; i < nports; i++ {
		tx := link.NewHalf(r.eng, "p", 64, 2)
		tx.SetReceivers(tape{r, i}, tape{r, i})
		r.sw.AttachLink(i, tx, core.NewSharedCredits(credits))
	}
	r.eng.AddTicker(sim.PhaseInject, func(now sim.Cycle) {
		if everyCycle {
			if r.sw.napAt != 0 {
				r.sw.wake()
			}
			for live := r.sw.liveIn; live != 0; live &= live - 1 {
				r.sw.heat(bits.TrailingZeros64(live), now)
			}
			r.sw.drainDue = 0
		}
		r.cooled += bits.OnesCount64(r.sw.liveIn &^ r.sw.hot)
		r.parked += bits.OnesCount64(r.sw.parked)
	})
	// After the switch's own tick: a nap in progress that did not begin
	// in this very cycle skipped this cycle's tick. Reading the counters
	// here, as the invariant checker's tick does, settles a nap mid-cycle
	// — the very cycle it began in included — and never takes a stall back.
	r.eng.AddTicker(sim.PhaseDevice, func(now sim.Cycle) {
		if r.sw.napAt != 0 && r.sw.napAt <= now {
			r.napped++
		}
		if got := r.sw.Stats().CreditStalls; got < r.stalls {
			t.Fatalf("cycle %d: CreditStalls fell from %d to %d", now, r.stalls, got)
		} else {
			r.stalls = got
		}
	})
	return r
}

// mustNap requires the elided switch to be napping right now: what the
// scenario does next starts from a sleeping device.
func (r *edgeRig) mustNap(next string) {
	r.t.Helper()
	if !r.everyCycle && (r.sw.napAt == 0 || r.sw.h.Awake()) {
		r.t.Fatalf("cycle %d: switch not napping before %s", r.eng.Now(), next)
	}
}

func (r *edgeRig) recv(in, dst, cfq int) {
	r.sw.PacketReceiver(in).ReceivePacket(pkt.NewData(&r.ids, 9, dst, in, pkt.MTU, r.eng.Now()), cfq)
}

func (r *edgeRig) ctl(out int, m link.Control) { r.sw.ControlReceiver(out).ReceiveControl(m) }

func (r *edgeRig) credit(out int) {
	r.ctl(out, link.Control{Kind: link.Credit, Bytes: pkt.MTU, Dest: out})
}

func (r *edgeRig) iso(in int) *core.IsolationUnit {
	return r.sw.InputDisc(in).(*core.IsolationUnit)
}

// stepForwards steps one cycle and requires exactly n crossbar launches
// in it.
func (r *edgeRig) stepForwards(n int, why string) {
	r.t.Helper()
	before := r.sw.stats.Forwarded
	at := r.eng.Now()
	r.eng.Step()
	if got := r.sw.stats.Forwarded - before; got != n {
		r.t.Fatalf("cycle %d: %d launches, want %d: %s", at, got, n, why)
	}
}

// transcript is everything a scenario may compare: what left the
// switch and when, the counters (less the elision's own), every line.
func (r *edgeRig) transcript() string {
	st := *r.sw.Stats()
	st.PortCyclesElided, st.CyclesNapped = 0, 0
	fmt.Fprintf(&r.log, "end %d stats %+v\n", r.eng.Now(), st)
	for i := range r.sw.in {
		fmt.Fprintf(&r.log, "p%d disc %+v used %d\n", i, *r.sw.InputDisc(i).Stats(), r.sw.InputDisc(i).UsedBytes())
		if iso, ok := r.sw.InputDisc(i).(*core.IsolationUnit); ok {
			for li := 0; li < 2; li++ {
				if line, dests, ok := iso.LineInfo(li); ok {
					fmt.Fprintf(&r.log, "p%d line %d %+v %v\n", i, li, line, dests)
				}
			}
		}
	}
	return r.log.String()
}

// The edge table: each scenario runs on the elided switch and on the
// stepped reference and must leave the same transcript; the assertions
// inside a scenario hold on both.
func TestElisionEdges(t *testing.T) {
	for _, sc := range []struct {
		name                   string
		params                 core.Params
		nports, xbar, credits  int
		wantCooled, wantParked bool
		script                 func(r *edgeRig)
	}{
		{
			// One packet through an empty switch: it sleeps while the packet
			// crosses the crossbar, the land wakes it and the packet is on
			// the wire that cycle; then it is idle, and no longer napping.
			name: "land", params: core.Preset1Q(), nports: 2, xbar: 64, credits: 1 << 20,
			script: func(r *edgeRig) {
				r.recv(0, 1, -1)
				r.stepForwards(1, "arrival on an idle switch")
				r.eng.Run(pkt.MTU / 64)
				r.mustNap("the land")
				r.eng.Step()
				if r.sw.stagedOut != 0 || r.sw.TxHalf(1).Free(r.eng.Now()) {
					r.t.Fatalf("cycle %d: staged %b, link idle after the land's own cycle", r.eng.Now(), r.sw.stagedOut)
				}
				r.eng.RunFor(100)
				if r.sw.napAt != 0 || r.sw.h.Awake() {
					r.t.Fatalf("idle switch: napAt %d, awake %v", r.sw.napAt, r.sw.h.Awake())
				}
			},
		},
		{
			// A parked input is granted in the very cycle its credit
			// arrives, the switch napping with no deadline until then and
			// CreditStalls keeping its every-cycle value across the nap; a
			// Stall mid-nap wakes the switch, a credit during it waits for
			// the stall's end, and the stalled cycles count no CreditStalls.
			name: "credit", params: core.Preset1Q(), nports: 2, xbar: 64, credits: 2 * pkt.MTU,
			wantCooled: true, wantParked: true,
			script: func(r *edgeRig) {
				for i := 0; i < 6; i++ {
					r.recv(0, 1, -1)
				}
				r.eng.Run(300)
				r.mustNap("counting stalls")
				stalls := r.sw.Stats().CreditStalls
				r.eng.RunFor(100)
				if got := r.sw.Stats().CreditStalls - stalls; got != 100 {
					r.t.Fatalf("%d CreditStalls over 100 blocked cycles", got)
				}
				r.mustNap("the credit")
				r.credit(1)
				r.stepForwards(1, "credit arrived this cycle")
				r.eng.RunFor(100)
				r.mustNap("the stall")
				r.sw.Stall(50)
				r.eng.RunFor(10)
				stalls = r.sw.Stats().CreditStalls
				r.credit(1)
				r.stepForwards(0, "switch stalled")
				r.eng.Run(r.sw.StalledUntil())
				if got := r.sw.Stats().CreditStalls; got != stalls {
					r.t.Fatalf("CreditStalls moved %d -> %d during a stall", stalls, got)
				}
				r.stepForwards(1, "first cycle after the stall")
				r.eng.RunFor(300)
			},
		},
		{
			// Inputs parked behind a full output stage go the cycle a
			// drain frees a slot.
			name: "stage slot", params: core.Preset1Q(), nports: 4, xbar: 256, credits: 1 << 20,
			wantParked: true,
			script: func(r *edgeRig) {
				for i := 0; i < 6; i++ {
					for in := 0; in < 3; in++ {
						r.recv(in, 3, -1)
					}
				}
				r.eng.Run(50)
				r.mustNap("the drain that frees a slot (the nap's own deadline)")
				r.eng.Run(1000)
				if r.sw.stats.Forwarded != 18 {
					r.t.Fatalf("forwarded %d of 18", r.sw.stats.Forwarded)
				}
			},
		},
		{
			// CFQGo lifts a Stop: the held CFQ goes that cycle. Then the
			// drained line deallocates (and tells upstream) at exactly
			// LastActive+HoldDown, the port cool in between — and the switch
			// asleep, woken by nothing but the wake-up it scheduled then.
			name: "cfq go, hold-down", params: core.PresetFBICM(), nports: 2, xbar: 64, credits: 1 << 20,
			wantCooled: true, wantParked: true,
			script: func(r *edgeRig) {
				r.ctl(1, link.Control{Kind: link.CFQAlloc, CFQ: 1, Dests: []int{1}})
				r.ctl(1, link.Control{Kind: link.CFQStop, CFQ: 1})
				for i := 0; i < 6; i++ {
					r.recv(0, 1, -1)
				}
				r.eng.Run(600)
				held := r.sw.stats.Forwarded
				r.mustNap("the Go")
				r.ctl(1, link.Control{Kind: link.CFQGo, CFQ: 1})
				r.stepForwards(1, "Go arrived this cycle")
				for limit := r.eng.Now() + 10_000; r.iso(0).UsedBytes() > 0; r.eng.Step() {
					if r.eng.Now() == limit {
						r.t.Fatalf("cycle %d: the released CFQ never drained (a lost wake-up?)", limit)
					}
				}
				if r.sw.stats.Forwarded != 6 || held > 1 {
					r.t.Fatalf("forwarded %d (%d before Go)", r.sw.stats.Forwarded, held)
				}
				line, _, _ := r.iso(0).LineInfo(0)
				if !line.Announced || line.LastActive != r.eng.Now()-2 {
					r.t.Fatalf("cycle %d: drained line %+v", r.eng.Now(), line)
				}
				r.eng.Run(line.LastActive + r.sw.p.HoldDown)
				r.mustNap("the hold-down runs out")
				if r.iso(0).ActiveLines() != 1 {
					r.t.Fatal("line gone before its hold-down")
				}
				r.eng.Step()
				if r.iso(0).ActiveLines() != 0 {
					r.t.Fatalf("line %+v still there at LastActive+HoldDown", line)
				}
				r.eng.RunFor(10) // the upstream CFQDealloc reaches the tape
			},
		},
		{
			// A packet that arrives straight into the empty CFQ of a cool
			// port and is popped the same cycle leaves the old LastActive.
			name: "direct arrival popped at once", params: core.PresetFBICM(), nports: 2, xbar: 64, credits: 1 << 20,
			wantCooled: true,
			script: func(r *edgeRig) {
				r.ctl(1, link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: []int{1}})
				for i := 0; i < 3; i++ {
					r.recv(0, 1, -1)
				}
				r.eng.Run(120)
				line, _, ok := r.iso(0).LineInfo(0)
				if !ok || r.iso(0).UsedBytes() != 0 {
					r.t.Fatalf("line %+v ok=%v used %d", line, ok, r.iso(0).UsedBytes())
				}
				r.recv(0, 1, 0)
				r.stepForwards(1, "direct arrival on an idle port")
				if got, _, _ := r.iso(0).LineInfo(0); got.LastActive != line.LastActive || r.iso(0).Stats().DirectArrivals != 1 {
					r.t.Fatalf("LastActive %d -> %d, stats %+v", line.LastActive, got.LastActive, r.iso(0).Stats())
				}
				r.eng.Run(line.LastActive + r.sw.p.HoldDown)
				if r.iso(0).ActiveLines() != 1 {
					r.t.Fatal("line gone before its hold-down")
				}
				r.eng.Step()
				if r.iso(0).ActiveLines() != 0 {
					r.t.Fatal("line still there at LastActive+HoldDown")
				}
			},
		},
		{
			// A CAM-exhausted port: the detection retry (and the
			// CAMExhausted it counts) keeps its cadence while the port
			// is cool in between; the lazy path counts every cycle.
			name: "cam exhausted", params: core.PresetCCFIT(), nports: 5, xbar: 64, credits: pkt.MTU,
			wantCooled: true, wantParked: true,
			script: func(r *edgeRig) {
				for i := 0; i < 4; i++ {
					for dst := 1; dst <= 4; dst++ {
						r.recv(0, dst, -1)
					}
				}
				r.eng.Run(400)
				before := r.iso(0).Stats().CAMExhausted
				r.eng.RunFor(1600)
				if got := r.iso(0).Stats().CAMExhausted - before; got != 100 || r.iso(0).ActiveLines() != 2 {
					r.t.Fatalf("%d CAMExhausted over 1600 cycles of failed detection (every %d), %d lines", got, 16, r.iso(0).ActiveLines())
				}
				r.ctl(3, link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: []int{3}})
				r.ctl(4, link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: []int{4}})
				before = r.iso(0).Stats().CAMExhausted
				r.eng.RunFor(300)
				if got := r.iso(0).Stats().CAMExhausted - before; got != 300 {
					r.t.Fatalf("%d CAMExhausted over 300 cycles on the lazy path", got)
				}
				for out := 1; out <= 4; out++ {
					r.credit(out)
				}
				r.eng.RunFor(500)
			},
		},
		{
			// Nobody announces a downed link's return: a staged output
			// polls it and drains in the very cycle it is back; the slot
			// that frees restarts the inputs parked behind the stage. A
			// refund for a packet the flap dropped unparks like any credit.
			name: "output flap, refund", params: core.Preset1Q(), nports: 3, xbar: 64, credits: 5 * pkt.MTU,
			wantCooled: true, wantParked: true,
			script: func(r *edgeRig) {
				for i := 0; i < 4; i++ {
					r.recv(0, 2, -1)
					r.recv(1, 2, -1)
				}
				r.eng.Run(40)
				r.sw.TxHalf(2).SetDown(true)
				r.eng.RunFor(300)
				if r.sw.stats.Forwarded != 3 || r.sw.stagedOut != 1<<2 || r.sw.napAt != 0 {
					r.t.Fatalf("forwarded %d, staged %b behind the downed link, napAt %d (the poll must stay awake)", r.sw.stats.Forwarded, r.sw.stagedOut, r.sw.napAt)
				}
				r.sw.TxHalf(2).SetDown(false)
				r.stepForwards(1, "link back: the drain frees a stage slot this cycle")
				r.eng.RunFor(300)
				if r.sw.stats.Forwarded != 5 {
					r.t.Fatalf("forwarded %d with 5 MTUs of credit", r.sw.stats.Forwarded)
				}
				r.mustNap("the refund")
				r.sw.RefundCredit(2, 2, pkt.MTU)
				r.stepForwards(1, "refund arrived this cycle")
				r.eng.RunFor(300)
			},
		},
		{
			// The marking discipline: High/Low crossings and the FECN
			// marks they gate, with ports cooling between arrivals.
			name: "voqsw marking", params: core.PresetITh(), nports: 3, xbar: 64, credits: 4 * pkt.MTU,
			wantCooled: true, wantParked: true,
			script: func(r *edgeRig) {
				for i := 0; i < 12; i++ {
					r.recv(0, 1, -1)
					r.recv(1, 2-i%2, -1)
				}
				for step := 0; step < 30; step++ {
					r.eng.RunFor(97)
					r.credit(1 + step%2)
				}
				if r.sw.stats.Marked == 0 {
					r.t.Fatal("nothing marked")
				}
			},
		},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			elided := newEdgeRig(t, sc.params, sc.nports, sc.xbar, sc.credits, false)
			sc.script(elided)
			stepped := newEdgeRig(t, sc.params, sc.nports, sc.xbar, sc.credits, true)
			sc.script(stepped)
			if got, want := elided.transcript(), stepped.transcript(); got != want {
				t.Fatalf("elided run differs from the stepped reference: %s", testutil.FirstDiff(got, want))
			}
			if stepped.cooled != 0 || stepped.parked != 0 {
				t.Fatalf("reference rig elided: %d cool, %d parked port-cycles", stepped.cooled, stepped.parked)
			}
			if stepped.napped != 0 || stepped.sw.Stats().CyclesNapped != 0 {
				t.Fatalf("reference rig napped: %d ticks skipped, CyclesNapped %d", stepped.napped, stepped.sw.Stats().CyclesNapped)
			}
			if sc.wantCooled && elided.cooled == 0 || sc.wantParked && elided.parked == 0 || elided.napped == 0 {
				t.Fatalf("scenario never exercised the elision: %d cool, %d parked port-cycles, %d ticks napped", elided.cooled, elided.parked, elided.napped)
			}
			if got := elided.sw.Stats().CyclesNapped; got != elided.napped {
				t.Fatalf("CyclesNapped %d, the nap skipped %d ticks", got, elided.napped)
			}
			t.Logf("%d cool, %d parked port-cycles, %d elided; %d ticks napped", elided.cooled, elided.parked, elided.sw.Stats().PortCyclesElided, elided.napped)
		})
	}
}
