package core

import (
	"math/rand"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestMarkStateCongestionCounter(t *testing.T) {
	p := PresetCCFIT()
	m := NewMarkState(&p, rand.New(rand.NewSource(1)), nil, "t")
	if m.Congested() {
		t.Fatal("fresh state congested")
	}
	m.Crossed(true)
	m.Crossed(true)
	if !m.Congested() {
		t.Fatal("not congested after crossings")
	}
	m.Crossed(false)
	if !m.Congested() {
		t.Fatal("left congestion state with one queue still above High")
	}
	m.Crossed(false)
	if m.Congested() {
		t.Fatal("congested at counter zero")
	}
}

func TestMarkStateUnderflowPanics(t *testing.T) {
	p := PresetCCFIT()
	m := NewMarkState(&p, rand.New(rand.NewSource(1)), nil, "t")
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	m.Crossed(false)
}

func TestMarkingRateApproximate(t *testing.T) {
	p := PresetCCFIT()
	m := NewMarkState(&p, rand.New(rand.NewSource(7)), nil, "t")
	m.Crossed(true)
	var g pkt.IDGen
	marked := 0
	const n = 10000
	for i := 0; i < n; i++ {
		pk := pkt.NewData(&g, 0, 1, 0, pkt.MTU, 0)
		if m.MaybeMark(pk) {
			marked++
		}
		if pk.FECN != (marked > 0 && pk.FECN) { // marked implies FECN
			t.Fatal("mark flag inconsistent")
		}
	}
	frac := float64(marked) / n
	if frac < 0.83 || frac > 0.87 {
		t.Fatalf("marked fraction = %v, want ~0.85", frac)
	}
	if m.Marked != marked {
		t.Fatal("counter mismatch")
	}
}

func TestMarkingRespectsGates(t *testing.T) {
	p := PresetCCFIT()
	p.MarkingRate = 1.0
	m := NewMarkState(&p, rand.New(rand.NewSource(1)), nil, "t")
	var g pkt.IDGen

	// Not congested: no marking.
	if m.MaybeMark(pkt.NewData(&g, 0, 1, 0, pkt.MTU, 0)) {
		t.Fatal("marked outside congestion state")
	}
	m.Crossed(true)
	// BECNs are never marked.
	if m.MaybeMark(pkt.NewBECN(&g, 1, 0, 1, 0)) {
		t.Fatal("BECN marked")
	}
	// Below Packet_Size: not marked.
	if m.MaybeMark(pkt.NewData(&g, 0, 1, 0, p.MinMarkSize-1, 0)) {
		t.Fatal("small packet marked")
	}
	// Eligible data packet: marked.
	dp := pkt.NewData(&g, 0, 1, 0, pkt.MTU, 0)
	if !m.MaybeMark(dp) || !dp.FECN {
		t.Fatal("eligible packet not marked")
	}
	// Already-marked packet: not double counted.
	if m.MaybeMark(dp) {
		t.Fatal("double marked")
	}
	// Marking disabled entirely.
	p2 := PresetFBICM()
	m2 := NewMarkState(&p2, rand.New(rand.NewSource(1)), nil, "t")
	m2.Crossed(true)
	if m2.MaybeMark(pkt.NewData(&g, 0, 1, 0, pkt.MTU, 0)) {
		t.Fatal("FBICM marked a packet")
	}
}

func TestThrottlerBECNRaisesIRD(t *testing.T) {
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	th := NewThrottler(eng, &p, 8)
	if th.IRD(3) != 0 {
		t.Fatal("fresh throttler delays")
	}
	if !th.MayInject(3, 0) {
		t.Fatal("fresh throttler blocks injection")
	}
	th.OnBECN(3)
	th.OnBECN(3)
	if th.CCTI(3) != 2 {
		t.Fatalf("CCTI = %d, want 2", th.CCTI(3))
	}
	if th.IRD(3) != 2*p.IRDStep {
		t.Fatalf("IRD = %d, want %d", th.IRD(3), 2*p.IRDStep)
	}
	// Other destinations unaffected (per-flow throttling).
	if th.IRD(4) != 0 {
		t.Fatal("BECN for 3 throttled 4")
	}
}

func TestThrottlerGatesByLTI(t *testing.T) {
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	th := NewThrottler(eng, &p, 8)
	th.OnBECN(3) // IRD = 16 cycles
	th.Injected(3, 100)
	if th.MayInject(3, 100+th.IRD(3)-1) {
		t.Fatal("injection allowed before IRD elapsed")
	}
	if !th.MayInject(3, 100+th.IRD(3)) {
		t.Fatal("injection blocked after IRD elapsed")
	}
}

func TestThrottlerTimerDecays(t *testing.T) {
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	th := NewThrottler(eng, &p, 8)
	th.OnBECN(3)
	th.OnBECN(3)
	th.OnBECN(3)
	if th.CCTI(3) != 3 {
		t.Fatalf("CCTI = %d", th.CCTI(3))
	}
	// After one timer period: 2; after three: 0.
	eng.Run(p.CCTITimer + 1)
	if th.CCTI(3) != 2 {
		t.Fatalf("CCTI after 1 period = %d, want 2", th.CCTI(3))
	}
	eng.Run(4*p.CCTITimer + 10)
	if th.CCTI(3) != 0 {
		t.Fatalf("CCTI after decay = %d, want 0", th.CCTI(3))
	}
	if th.IRD(3) != 0 {
		t.Fatal("IRD nonzero after full decay")
	}
	// Timer must not keep firing forever once at zero.
	pending := eng.Pending()
	eng.Run(eng.Now() + 10*p.CCTITimer)
	if eng.Pending() > pending {
		t.Fatal("timer events accumulate after decay")
	}
}

func TestThrottlerCCTIClamped(t *testing.T) {
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	p.CCTEntries = 4
	th := NewThrottler(eng, &p, 8)
	for i := 0; i < 10; i++ {
		th.OnBECN(2)
	}
	if th.CCTI(2) != 3 {
		t.Fatalf("CCTI = %d, want clamp at 3", th.CCTI(2))
	}
	if th.MaxCCTI != 3 || th.BECNs != 10 {
		t.Fatalf("stats: max=%d becns=%d", th.MaxCCTI, th.BECNs)
	}
}

// A throttler allocates its per-destination rows at first use, so a fresh
// one must answer exactly what a table built up front held: CCTI 0, IRD 0,
// and an LTI of -2^30, which opens the gate at any cycle the engine runs.
func TestThrottlerFreshAnswersLikeEager(t *testing.T) {
	const never = sim.Cycle(-1 << 30) // the eager table's initial LTI
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	th := NewThrottler(eng, &p, 8)
	for dst := 0; dst < 8; dst++ {
		if th.CCTI(dst) != 0 || th.IRD(dst) != 0 || th.NextInject(dst) != never {
			t.Fatalf("fresh dest %d: CCTI %d, IRD %d, NextInject %d; want 0, 0, %d",
				dst, th.CCTI(dst), th.IRD(dst), th.NextInject(dst), never)
		}
		for _, now := range []sim.Cycle{0, 1, 1000, 1 << 29} {
			if !th.MayInject(dst, now) {
				t.Fatalf("fresh dest %d gated at cycle %d", dst, now)
			}
		}
	}
	// An injection towards one destination leaves the others fresh.
	th.Injected(2, 100)
	if !th.MayInject(2, 100) || th.NextInject(2) != 100 {
		t.Fatalf("after Injected(2, 100): MayInject %v, NextInject %d", th.MayInject(2, 100), th.NextInject(2))
	}
	if th.NextInject(3) != never || th.CCTI(3) != 0 {
		t.Fatalf("Injected(2) moved dest 3: NextInject %d, CCTI %d", th.NextInject(3), th.CCTI(3))
	}
}

// The first call a node makes may be OnBECN (a BECN arrives before the
// node ever injected towards that destination): it raises the CCTI, arms
// the decay timer, and leaves the gate open to the first injection.
func TestThrottlerBECNBeforeInjection(t *testing.T) {
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	th := NewThrottler(eng, &p, 8)
	th.OnBECN(5)
	if th.CCTI(5) != p.CCTIIncrease || th.IRD(5) != sim.Cycle(p.CCTIIncrease)*p.IRDStep {
		t.Fatalf("CCTI %d, IRD %d after one BECN", th.CCTI(5), th.IRD(5))
	}
	if !th.MayInject(5, 0) || th.NextInject(5) != -1<<30+th.IRD(5) {
		t.Fatalf("no injection behind dest 5, yet MayInject %v, NextInject %d", th.MayInject(5, 0), th.NextInject(5))
	}
	if th.CCTI(4) != 0 || th.NextInject(4) != -1<<30 {
		t.Fatalf("BECN for 5 moved dest 4: CCTI %d, NextInject %d", th.CCTI(4), th.NextInject(4))
	}
	eng.Run(p.CCTITimer + 1)
	if th.CCTI(5) != p.CCTIIncrease-1 {
		t.Fatalf("CCTI %d one timer period after the BECN, want %d", th.CCTI(5), p.CCTIIncrease-1)
	}
}

// IRD is the linear table's entry, CCTI·IRDStep, at every index a run of
// BECNs reaches, the index clamped at CCTEntries−1.
func TestThrottlerLinearCCT(t *testing.T) {
	eng := sim.NewEngine(1)
	p := PresetCCFIT()
	p.CCTIIncrease = 1
	th := NewThrottler(eng, &p, 4)
	for becns := 1; becns <= p.CCTEntries+2; becns++ {
		th.OnBECN(1)
		i := min(becns, p.CCTEntries-1)
		if th.CCTI(1) != i || th.IRD(1) != sim.Cycle(i)*p.IRDStep {
			t.Fatalf("after %d BECNs: CCTI %d, IRD %d; want %d, %d", becns, th.CCTI(1), th.IRD(1), i, sim.Cycle(i)*p.IRDStep)
		}
	}
}
