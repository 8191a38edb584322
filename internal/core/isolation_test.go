package core

import (
	"testing"

	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// fill pushes n MTU packets for dst into the unit's NFQ.
func fill(u *IsolationUnit, g *pkt.IDGen, dst, n int) {
	for i := 0; i < n; i++ {
		u.Enqueue(mkdata(g, dst, pkt.MTU), -1)
	}
}

func newUnit(p *Params) (*IsolationUnit, *fakeEnv) {
	env := newFakeEnv()
	return NewIsolationUnit(p, env), env
}

func TestDetectionAllocatesRootCFQ(t *testing.T) {
	p := PresetCCFIT()
	u, _ := newUnit(&p)
	var g pkt.IDGen
	// One victim packet at the head, then a burst to hot dest 2
	// crossing the detection threshold (4 MTUs).
	u.Enqueue(mkdata(&g, 1, pkt.MTU), -1)
	fill(u, &g, 2, 5)
	u.Post(0)
	if u.ActiveLines() != 1 {
		t.Fatalf("active lines = %d, want 1", u.ActiveLines())
	}
	line, ok := u.LineInfo(0)
	if !ok || line.Dest != 2 {
		t.Fatalf("line = %+v, want dest 2", line)
	}
	if !line.Root {
		t.Fatal("locally detected line with no downstream line must be root")
	}
	if line.Out != 2 { // route = dest%4
		t.Fatalf("line out = %d, want 2", line.Out)
	}
	if u.Stats().Detections != 1 {
		t.Fatalf("detections = %d", u.Stats().Detections)
	}
}

func TestPostMovesCongestedPacketsOnlyAtHead(t *testing.T) {
	p := PresetCCFIT()
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 5) // hot
	u.Enqueue(mkdata(&g, 1, pkt.MTU), -1)
	fill(u, &g, 2, 2) // more hot behind the victim
	u.Post(0)         // detect + up to 2 moves
	for c := sim.Cycle(1); c < 10; c++ {
		u.Post(c)
	}
	// Post-processing only examines the NFQ head (Section III-C), so
	// the 5 leading hot packets drain into the CFQ and the victim is
	// exposed; the 2 hot packets behind it wait for the victim to go.
	if u.CFQBytes(0) != 5*pkt.MTU {
		t.Fatalf("CFQ bytes = %d, want %d", u.CFQBytes(0), 5*pkt.MTU)
	}
	rs := collect(u)
	var nfqHead *pkt.Packet
	for _, r := range rs {
		if r.QID == 0 {
			nfqHead = r.Pkt
		}
	}
	if nfqHead == nil || nfqHead.Dst != 1 {
		t.Fatalf("NFQ head = %v, want victim to dest 1", nfqHead)
	}
	// Once the victim is forwarded, the trailing hot packets move too.
	u.Pop(0)
	for c := sim.Cycle(10); c < 15; c++ {
		u.Post(c)
	}
	if u.CFQBytes(0) != 7*pkt.MTU {
		t.Fatalf("CFQ bytes after victim left = %d, want %d", u.CFQBytes(0), 7*pkt.MTU)
	}
	if u.Stats().PostMoves != 7 {
		t.Fatalf("post moves = %d, want 7", u.Stats().PostMoves)
	}
}

func TestHoLEliminated(t *testing.T) {
	// The defining property: with isolation, a victim behind congested
	// packets becomes servable; without it (1Q) it is not.
	p := PresetCCFIT()
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 6)
	u.Enqueue(mkdata(&g, 1, pkt.MTU), -1) // victim at the tail
	for c := sim.Cycle(0); c < 10; c++ {
		u.Post(c)
	}
	rs := collect(u)
	foundVictim := false
	for _, r := range rs {
		if r.QID == 0 && r.Pkt.Dst == 1 {
			foundVictim = true
		}
	}
	if !foundVictim {
		t.Fatal("victim not exposed at NFQ head after post-processing")
	}
}

func TestLazyAllocFromDownstreamLine(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	env.outLines[[2]int{2, 2}] = outLineState{downCFQ: 1}
	var g pkt.IDGen
	u.Enqueue(mkdata(&g, 2, pkt.MTU), -1)
	u.Post(0)
	if u.ActiveLines() != 1 {
		t.Fatalf("lazy alloc did not happen")
	}
	line, _ := u.LineInfo(0)
	if line.Root {
		t.Fatal("lazy-allocated line must not be root")
	}
	if u.Stats().LazyAllocs != 1 {
		t.Fatalf("lazy allocs = %d", u.Stats().LazyAllocs)
	}
	// The packet moved and its request carries the direct-CFQ target.
	u.Post(1)
	rs := collect(u)
	if len(rs) != 1 || rs[0].QID != 1 || rs[0].DirectCFQ != 1 {
		t.Fatalf("requests = %+v, want CFQ request with DirectCFQ 1", rs)
	}
}

func TestStopGateBlocksCFQ(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	env.outLines[[2]int{2, 2}] = outLineState{downCFQ: 0, stopped: true}
	var g pkt.IDGen
	u.Enqueue(mkdata(&g, 2, pkt.MTU), -1)
	u.Post(0)
	u.Post(1)
	rs := collect(u)
	if len(rs) != 0 {
		t.Fatalf("stopped CFQ emitted requests: %+v", rs)
	}
	// Go state re-enables it.
	env.outLines[[2]int{2, 2}] = outLineState{downCFQ: 0}
	rs = collect(u)
	if len(rs) != 1 || rs[0].DirectCFQ != 0 {
		t.Fatalf("go state requests = %+v", rs)
	}
}

func TestCAMExhaustionFallsBackToNFQ(t *testing.T) {
	// Three simultaneous congestion trees with 2 CFQs: the third hot
	// flow stays in the NFQ and is counted as exhaustion — the FBICM
	// scalability flaw the paper studies (Fig. 8b/c).
	p := PresetCCFIT()
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 1, 5)
	fill(u, &g, 2, 5)
	fill(u, &g, 3, 5)
	for c := sim.Cycle(0); c < 40; c++ {
		u.Post(c)
	}
	if u.ActiveLines() != 2 {
		t.Fatalf("active lines = %d, want 2", u.ActiveLines())
	}
	if u.Stats().CAMExhausted == 0 {
		t.Fatal("exhaustion not counted")
	}
	// The third flow's head must still be servable via the NFQ.
	rs := collect(u)
	foundNFQ := false
	for _, r := range rs {
		if r.QID == 0 {
			foundNFQ = true
		}
	}
	if !foundNFQ {
		t.Fatal("NFQ head not requestable during CAM exhaustion")
	}
}

func TestPropagationAnnouncesUpstream(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 5)
	for c := sim.Cycle(0); c < 10; c++ {
		u.Post(c)
	}
	u.Update(10)
	// CFQ holds >= PropagateThreshold (4 MTUs): a CFQAlloc goes up.
	var allocs []link.Control
	for _, m := range env.upstream {
		if m.Kind == link.CFQAlloc {
			allocs = append(allocs, m)
		}
	}
	if len(allocs) != 1 {
		t.Fatalf("CFQAllocs = %d, want 1 (%v)", len(allocs), env.upstream)
	}
	if allocs[0].Dest != 2 {
		t.Fatalf("alloc dest = %d, want 2", allocs[0].Dest)
	}
	u.Update(11)
	count := 0
	for _, m := range env.upstream {
		if m.Kind == link.CFQAlloc {
			count++
		}
	}
	if count != 1 {
		t.Fatal("CFQAlloc re-announced")
	}
}

func TestStopGoLifecycle(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 12) // enough to cross Stop (10 MTUs) once isolated
	for c := sim.Cycle(0); c < 30; c++ {
		u.Post(c)
		u.Update(c)
	}
	hasStop := false
	for _, m := range env.upstream {
		if m.Kind == link.CFQStop && m.CFQ == 0 {
			hasStop = true
		}
	}
	if !hasStop {
		t.Fatalf("no Stop sent; msgs=%v", env.upstream)
	}
	if u.Stats().StopsSent != 1 {
		t.Fatalf("stops = %d", u.Stats().StopsSent)
	}
	// Drain to Go threshold (4 MTUs).
	for u.CFQBytes(0) > p.GoThreshold {
		u.Pop(1)
	}
	u.Update(100)
	hasGo := false
	for _, m := range env.upstream {
		if m.Kind == link.CFQGo && m.CFQ == 0 {
			hasGo = true
		}
	}
	if !hasGo {
		t.Fatal("no Go sent after draining")
	}
}

func TestDeallocationAfterHoldDown(t *testing.T) {
	p := PresetCCFIT()
	p.HoldDown = 10
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 5)
	for c := sim.Cycle(0); c < 12; c++ {
		u.Post(c)
		u.Update(c)
	}
	// Drain the CFQ completely.
	for u.Pop(1) != nil {
	}
	u.Update(20)
	if u.ActiveLines() != 1 {
		t.Fatal("dealloc before hold-down expiry")
	}
	u.Update(40) // LastActive was <= 11; 40-11 >= 10
	if u.ActiveLines() != 0 {
		t.Fatal("CFQ not deallocated after hold-down")
	}
	hasDealloc := false
	for _, m := range env.upstream {
		if m.Kind == link.CFQDealloc {
			hasDealloc = true
		}
	}
	if !hasDealloc {
		t.Fatal("announced line deallocated without upstream notification")
	}
	if u.Stats().Deallocs != 1 {
		t.Fatalf("deallocs = %d", u.Stats().Deallocs)
	}
}

func TestNoDeallocWhileStopped(t *testing.T) {
	p := PresetCCFIT()
	p.HoldDown = 1
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 12)
	for c := sim.Cycle(0); c < 30; c++ {
		u.Post(c)
		u.Update(c)
	}
	// Empty the CFQ abruptly while the line is in Stop state: the line
	// must survive until Go is signalled (dealloc requires Go status).
	for u.Pop(1) != nil {
	}
	line, _ := u.LineInfo(0)
	if !line.Stopped {
		t.Skip("line never reached Stop in this configuration")
	}
	// A single Update both sends Go (occupancy 0 <= GoThreshold) and
	// may then dealloc on a later pass; the first one must not free it
	// before Go is sent.
	u.Update(1000)
	if u.Stats().GoesSent == 0 {
		t.Fatal("Go not sent when drained")
	}
}

func TestRootCFQDrivesMarkCrossings(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 8)
	for c := sim.Cycle(0); c < 20; c++ {
		u.Post(c)
		u.Update(c)
	}
	// CFQ >= High (4 MTUs) => one above-crossing on out port 2.
	if len(env.crossings) == 0 || env.crossings[0] != (crossing{2, true}) {
		t.Fatalf("crossings = %v", env.crossings)
	}
	n := len(env.crossings)
	// Drain below Low (2 MTUs) => below-crossing.
	for u.CFQBytes(0) > p.LowThreshold {
		u.Pop(1)
	}
	u.Update(100)
	if len(env.crossings) != n+1 || !env.crossings[n].above == false && env.crossings[n].above {
		t.Fatalf("crossings = %v, want a below-crossing appended", env.crossings)
	}
	if env.crossings[n].above {
		t.Fatalf("expected below-crossing, got %v", env.crossings[n])
	}
}

func TestNonRootCFQNeverMarks(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	env.outLines[[2]int{2, 2}] = outLineState{downCFQ: 0}
	var g pkt.IDGen
	fill(u, &g, 2, 8)
	for c := sim.Cycle(0); c < 20; c++ {
		u.Post(c)
		u.Update(c)
	}
	if len(env.crossings) != 0 {
		t.Fatalf("non-root CFQ drove congestion state: %v", env.crossings)
	}
}

func TestFBICMNeverMarks(t *testing.T) {
	p := PresetFBICM()
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 10)
	for c := sim.Cycle(0); c < 30; c++ {
		u.Post(c)
		u.Update(c)
	}
	if len(env.crossings) != 0 {
		t.Fatalf("FBICM drove congestion state: %v", env.crossings)
	}
}

func TestDemoteRoot(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 8)
	for c := sim.Cycle(0); c < 20; c++ {
		u.Post(c)
		u.Update(c)
	}
	line, _ := u.LineInfo(0)
	if !line.Root || !line.OverHigh {
		t.Fatalf("precondition: root overhigh line, got %+v", line)
	}
	// A downstream line for another destination through the same output
	// leaves the line alone.
	crossings := len(env.crossings)
	u.DemoteRoot(2, 99)
	line, _ = u.LineInfo(0)
	if !line.Root || !line.OverHigh || len(env.crossings) != crossings {
		t.Fatalf("demote for dest 99 touched the dest-2 line: %+v, crossings %v", line, env.crossings[crossings:])
	}
	u.DemoteRoot(2, 2)
	line, _ = u.LineInfo(0)
	if line.Root {
		t.Fatal("line still root after downstream announcement")
	}
	// The marking contribution must be withdrawn.
	last := env.crossings[len(env.crossings)-1]
	if last.above {
		t.Fatalf("no below-crossing on demote: %v", env.crossings)
	}
}

func TestDirectCFQDelivery(t *testing.T) {
	p := PresetCCFIT()
	u, env := newUnit(&p)
	env.outLines[[2]int{2, 2}] = outLineState{downCFQ: 0}
	var g pkt.IDGen
	u.Enqueue(mkdata(&g, 2, pkt.MTU), -1)
	u.Post(0) // lazy alloc line 0 for dest 2
	u.Post(1)
	if u.CFQBytes(0) != pkt.MTU {
		t.Fatal("setup: packet not isolated")
	}
	// Direct arrival into CFQ 0.
	u.Enqueue(mkdata(&g, 2, pkt.MTU), 0)
	if u.CFQBytes(0) != 2*pkt.MTU {
		t.Fatal("direct arrival not placed in CFQ")
	}
	if u.Stats().DirectArrivals != 1 {
		t.Fatalf("direct arrivals = %d", u.Stats().DirectArrivals)
	}
	// Stale direct arrival (dest mismatch) falls back to the NFQ.
	u.Enqueue(mkdata(&g, 3, pkt.MTU), 0)
	if u.NFQBytes() != pkt.MTU {
		t.Fatal("mismatched direct arrival not diverted to NFQ")
	}
	if u.Stats().MisroutedDirect != 1 {
		t.Fatalf("misrouted = %d", u.Stats().MisroutedDirect)
	}
	// BECNs never enter CFQs even when targeted.
	u.Enqueue(pkt.NewBECN(&g, 2, 0, 2, 0), 0)
	if u.CFQBytes(0) != 2*pkt.MTU {
		t.Fatal("BECN entered a CFQ")
	}
}

func TestBECNStaysAtNFQHeadWithPriority(t *testing.T) {
	p := PresetCCFIT()
	u, _ := newUnit(&p)
	var g pkt.IDGen
	u.Enqueue(pkt.NewBECN(&g, 2, 1, 2, 0), -1)
	fill(u, &g, 2, 6)
	for c := sim.Cycle(0); c < 10; c++ {
		u.Post(c)
	}
	rs := collect(u)
	if len(rs) != 1 || !rs[0].Priority || rs[0].Pkt.Kind != pkt.BECN {
		t.Fatalf("requests = %+v, want priority BECN at NFQ head", rs)
	}
	// Detection is held off while a BECN occupies the head; once
	// served, detection resumes.
	u.Pop(0)
	u.Post(20)
	if u.ActiveLines() != 1 {
		t.Fatal("detection did not resume after BECN left")
	}
}

func TestMaxCFQsInUseTracked(t *testing.T) {
	p := PresetCCFIT()
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 1, 5)
	fill(u, &g, 2, 5)
	for c := sim.Cycle(0); c < 40; c++ {
		u.Post(c)
		u.Update(c)
	}
	if u.Stats().MaxCFQsInUse != 2 {
		t.Fatalf("max CFQs in use = %d, want 2", u.Stats().MaxCFQsInUse)
	}
}
