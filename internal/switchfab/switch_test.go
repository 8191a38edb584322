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
)

// peer records what a switch port sends out.
type peer struct {
	pkts []*pkt.Packet
	cfqs []int
	at   []sim.Cycle
	ctls []link.Control
	eng  *sim.Engine
}

func (p *peer) ReceivePacket(q *pkt.Packet, cfq int) {
	p.pkts = append(p.pkts, q)
	p.cfqs = append(p.cfqs, cfq)
	p.at = append(p.at, p.eng.Now())
}
func (p *peer) ReceiveControl(m link.Control) { p.ctls = append(p.ctls, m) }

// idleScan is the full-scan idle test the live-port masks replaced:
// every input discipline quiescent, every output stage empty, nothing
// crossing the crossbar. It is the reference idle() is checked against.
func (s *Switch) idleScan() bool {
	for _, op := range s.out {
		if op.nstaged > 0 || op.inflight > 0 {
			return false
		}
	}
	for _, ip := range s.in {
		if !ip.disc.Quiescent() {
			return false
		}
	}
	return true
}

// napIdle says why the tick of cycle c, which the nap in progress skips,
// would have done something, or "": the every-tick predicate the nap is
// checked against. Nothing may be hot or due — so the nap's deadline,
// which is what ends it, is no later than min(minDue, drainDue) — no stall
// may be on, and every port the scan would visit must be crossing the
// crossbar.
func (s *Switch) napIdle(c sim.Cycle) string {
	switch {
	case s.napAt == 0:
		return "asleep, not idle and not napping"
	case s.hot != 0:
		return fmt.Sprintf("napping with hot ports %b", s.hot)
	case c >= s.minDue || c >= s.drainDue:
		return fmt.Sprintf("napping past a deadline (minDue %d, drainDue %d)", s.minDue, s.drainDue)
	case c < s.stalledUntil:
		return fmt.Sprintf("napping under a stall until %d", s.stalledUntil)
	}
	for live := s.liveIn &^ s.parked; live != 0; live &= live - 1 {
		if ip := s.in[bits.TrailingZeros64(live)]; ip.busyUntil <= c {
			return fmt.Sprintf("napping with p%d unparked and free (busy until %d)", ip.idx, ip.busyUntil)
		}
	}
	return ""
}

// rig builds one switch with nports ports, each wired to a recording
// peer with the given credit bytes; routing sends dest d out port d.
// Every cycle of every test that uses it asserts, after the switch's
// own tick, that the mask-based idle() agrees with the full scan
// and that a sleeping switch is an idle one — or one napping through a
// tick that has nothing to do (napIdle).
func rig(t *testing.T, params core.Params, nports, xbar, credits int) (*sim.Engine, *Switch, []*peer) {
	t.Helper()
	eng := sim.NewEngine(9)
	sw := New(eng, 100, "sw", nports, &params, func(d int) int { return d % nports }, 16, xbar)
	eng.AddTicker(sim.PhaseDevice, func(now sim.Cycle) sim.Cycle {
		if got, want := sw.idle(), sw.idleScan(); got != want {
			t.Fatalf("cycle %d: idle() = %v, full scan = %v (liveIn %b stagedOut %b inflight %d)",
				now, got, want, sw.liveIn, sw.stagedOut, sw.inflight)
		}
		if !sw.h.Awake() && !sw.idleScan() {
			if why := sw.napIdle(max(now, sw.napAt)); why != "" {
				t.Fatalf("cycle %d: switch sleeps with work pending: %s", now, why)
			}
		}
		return now + 1
	})
	peers := make([]*peer, nports)
	for i := range peers {
		peers[i] = &peer{eng: eng}
		tx := link.NewHalf(eng, "p", 64, 2)
		tx.SetReceivers(peers[i], peers[i])
		sw.AttachLink(i, tx, core.NewSharedCredits(credits))
	}
	return eng, sw, peers
}

func TestForwardsByRoute(t *testing.T) {
	eng, sw, peers := rig(t, core.Preset1Q(), 3, 64, 64<<10)
	var g pkt.IDGen
	sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 2, 0, pkt.MTU, 0), -1)
	eng.Run(200)
	if len(peers[1].pkts) != 1 || peers[1].pkts[0].Dst != 1 {
		t.Fatalf("port 1 got %v", peers[1].pkts)
	}
	if len(peers[2].pkts) != 1 || peers[2].pkts[0].Dst != 2 {
		t.Fatalf("port 2 got %v", peers[2].pkts)
	}
	if sw.Stats().Forwarded != 2 || sw.Stats().ForwardedBytes != 2*pkt.MTU {
		t.Fatalf("stats %+v", sw.Stats())
	}
}

func TestCreditReturnOnForward(t *testing.T) {
	eng, sw, peers := rig(t, core.Preset1Q(), 2, 64, 64<<10)
	var g pkt.IDGen
	sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	eng.Run(100)
	// The upstream neighbor on port 0 must get a credit for the MTU.
	found := false
	for _, c := range peers[0].ctls {
		if c.Kind == link.Credit && c.Bytes == pkt.MTU && c.Dest == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no credit return; ctls=%v", peers[0].ctls)
	}
}

func TestCreditExhaustionBlocks(t *testing.T) {
	eng, sw, peers := rig(t, core.Preset1Q(), 2, 64, 2*pkt.MTU)
	var g pkt.IDGen
	for i := 0; i < 5; i++ {
		sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	}
	eng.Run(2000)
	if len(peers[1].pkts) != 2 {
		t.Fatalf("forwarded %d with 2 MTUs of credit, want 2", len(peers[1].pkts))
	}
	if got := strings.Join(sw.DescribeBlocked(eng.Now()), "\n"); !strings.Contains(got, "no credits") {
		t.Fatalf("a credit-blocked port describes itself as %q", got)
	}
	// Return one credit; one more packet goes.
	sw.ControlReceiver(1).ReceiveControl(link.Control{Kind: link.Credit, Bytes: pkt.MTU, Dest: 1})
	eng.RunFor(200)
	if len(peers[1].pkts) != 3 {
		t.Fatalf("forwarded %d after credit return", len(peers[1].pkts))
	}
}

func TestCrossbarSpeedupForwardsFasterThanLink(t *testing.T) {
	// With crossbar at 2x the link rate, one input port can keep two
	// output links busy simultaneously (the Config #1 situation).
	var g pkt.IDGen
	run := func(xbar int) sim.Cycle {
		eng, sw, peers := rig(t, core.Preset1Q(), 3, xbar, 64<<10)
		for i := 0; i < 4; i++ {
			sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
			sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 2, 0, pkt.MTU, 0), -1)
		}
		eng.Run(2000)
		if len(peers[1].pkts) != 4 || len(peers[2].pkts) != 4 {
			t.Fatalf("xbar=%d: forwarded %d/%d", xbar, len(peers[1].pkts), len(peers[2].pkts))
		}
		last := peers[1].at[3]
		if peers[2].at[3] > last {
			last = peers[2].at[3]
		}
		return last
	}
	slow := run(64)
	fast := run(128)
	if fast >= slow {
		t.Fatalf("speedup 2 (%d cycles) not faster than speedup 1 (%d)", fast, slow)
	}
}

func TestRRFairnessAcrossInputs(t *testing.T) {
	// Three inputs contending for one output get equal service.
	eng, sw, peers := rig(t, core.Preset1Q(), 4, 64, 1<<20)
	var g pkt.IDGen
	for in := 0; in < 3; in++ {
		for i := 0; i < 30; i++ {
			sw.PacketReceiver(in).ReceivePacket(pkt.NewData(&g, in, 3, in, pkt.MTU, 0), -1)
		}
	}
	eng.Run(32 * 45) // time for ~45 MTUs on the output link
	counts := map[int]int{}
	for _, p := range peers[3].pkts {
		counts[p.Flow]++
	}
	total := len(peers[3].pkts)
	if total < 40 {
		t.Fatalf("only %d forwarded", total)
	}
	for f, c := range counts {
		share := float64(c) / float64(total)
		if share < 0.28 || share > 0.39 {
			t.Fatalf("input %d got share %.2f of the output (%v)", f, share, counts)
		}
	}
}

func TestFECNMarkingAtCongestedPort(t *testing.T) {
	p := core.PresetITh()
	p.MarkingRate = 1.0
	eng, sw, peers := rig(t, p, 2, 64, 1<<20)
	var g pkt.IDGen
	// Build a standing VOQ above High to enter the congestion state.
	for i := 0; i < 12; i++ {
		sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	}
	eng.Run(3000)
	if sw.Stats().Marked == 0 {
		t.Fatal("no packets marked")
	}
	marked := 0
	for _, q := range peers[1].pkts {
		if q.FECN {
			marked++
		}
	}
	if marked != sw.Stats().Marked {
		t.Fatalf("marked stat %d but %d FECN packets on the wire", sw.Stats().Marked, marked)
	}
}

func TestNoMarkingWithoutCongestion(t *testing.T) {
	p := core.PresetITh()
	p.MarkingRate = 1.0
	eng, sw, peers := rig(t, p, 2, 64, 1<<20)
	var g pkt.IDGen
	// A trickle that never crosses the High threshold.
	for i := 0; i < 3; i++ {
		sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	}
	eng.Run(1000)
	for _, q := range peers[1].pkts {
		if q.FECN {
			t.Fatal("packet marked without congestion")
		}
	}
}

func TestCFQProtocolAllocStopGoDealloc(t *testing.T) {
	// The switch's output CAM mirrors downstream CFQ state and gates
	// isolated traffic: after a CFQAlloc+CFQStop from downstream, the
	// matching packets are held; CFQGo releases them with the direct
	// CFQ tag; CFQDealloc removes the line.
	params := core.PresetFBICM()
	eng, sw, peers := rig(t, params, 2, 64, 1<<20)
	var g pkt.IDGen
	// Downstream (peer of port 1) announces its CFQ 1 for dest 1.
	sw.ControlReceiver(1).ReceiveControl(link.Control{Kind: link.CFQAlloc, CFQ: 1, Dest: 1})
	sw.ControlReceiver(1).ReceiveControl(link.Control{Kind: link.CFQStop, CFQ: 1})
	for i := 0; i < 6; i++ {
		sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	}
	eng.Run(2000)
	// Packets to dest 1 are isolated at input 0 (lazy alloc via the
	// out CAM) and then held by Stop.
	if got := len(peers[1].pkts); got > 1 {
		t.Fatalf("%d packets escaped a stopped CFQ", got)
	}
	iso := sw.InputDisc(0).(*core.IsolationUnit)
	if iso.ActiveLines() != 1 {
		t.Fatalf("input CFQ not allocated (lines=%d)", iso.ActiveLines())
	}
	// Go: traffic resumes, tagged for direct CFQ delivery.
	sw.ControlReceiver(1).ReceiveControl(link.Control{Kind: link.CFQGo, CFQ: 1})
	eng.RunFor(2000)
	if len(peers[1].pkts) != 6 {
		t.Fatalf("forwarded %d after Go, want 6", len(peers[1].pkts))
	}
	direct := 0
	for _, c := range peers[1].cfqs {
		if c == 1 {
			direct++
		}
	}
	if direct == 0 {
		t.Fatal("no direct CFQ-to-CFQ deliveries")
	}
	sw.ControlReceiver(1).ReceiveControl(link.Control{Kind: link.CFQDealloc, CFQ: 1})
	if sw.OutCAM(1).ActiveLines() != 0 {
		t.Fatal("out CAM line not removed")
	}
}

func TestDemoteRootOnDownstreamAlloc(t *testing.T) {
	params := core.PresetCCFIT()
	eng, sw, _ := rig(t, params, 2, 64, 1<<20)
	var g pkt.IDGen
	// Local detection first: input 0 sees a hot flow to dest 1.
	for i := 0; i < 8; i++ {
		sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 64), -1)
	}
	eng.Run(50)
	iso := sw.InputDisc(0).(*core.IsolationUnit)
	line, ok := iso.LineInfo(0)
	if !ok || !line.Root {
		t.Skipf("no root line formed (line=%+v ok=%v)", line, ok)
	}
	// Downstream announces its own CFQ for the tree: our line demotes.
	sw.ControlReceiver(1).ReceiveControl(link.Control{Kind: link.CFQAlloc, CFQ: 0, Dest: 1})
	line, _ = iso.LineInfo(0)
	if line.Root {
		t.Fatal("line still root after downstream alloc")
	}
}

func TestBECNPriorityThroughSwitch(t *testing.T) {
	// A BECN arriving behind data at one input beats data from another
	// input contending for the same output.
	eng, sw, peers := rig(t, core.PresetITh(), 3, 64, 1<<20)
	var g pkt.IDGen
	for i := 0; i < 8; i++ {
		sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 2, 0, pkt.MTU, 0), -1)
	}
	becn := pkt.NewBECN(&g, 1, 2, 1, 0)
	sw.PacketReceiver(1).ReceivePacket(becn, -1)
	eng.Run(32 * 3)
	// Within the first few served packets the BECN must appear.
	for i, q := range peers[2].pkts {
		if q.Kind == pkt.BECN {
			if i > 1 {
				t.Fatalf("BECN served %dth", i)
			}
			return
		}
	}
	t.Fatalf("BECN not among first served: %v", peers[2].pkts)
}

func TestUnconnectedPortTolerated(t *testing.T) {
	// Fat-tree top-level switches leave up-ports unattached; the
	// switch must simply never use them.
	eng := sim.NewEngine(9)
	params := core.Preset1Q()
	sw := New(eng, 100, "sw", 4, &params, func(d int) int { return d % 2 }, 16, 64)
	p0 := &peer{eng: eng}
	tx0 := link.NewHalf(eng, "p0", 64, 2)
	tx0.SetReceivers(p0, p0)
	sw.AttachLink(0, tx0, core.NewSharedCredits(1<<20))
	p1 := &peer{eng: eng}
	tx1 := link.NewHalf(eng, "p1", 64, 2)
	tx1.SetReceivers(p1, p1)
	sw.AttachLink(1, tx1, core.NewSharedCredits(1<<20))
	var g pkt.IDGen
	sw.PacketReceiver(0).ReceivePacket(pkt.NewData(&g, 9, 1, 0, pkt.MTU, 0), -1)
	eng.Run(100)
	if len(p1.pkts) != 1 {
		t.Fatal("switch with unconnected ports failed to forward")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	eng, sw, _ := rig(t, core.Preset1Q(), 2, 64, 1024)
	defer func() {
		if recover() == nil {
			t.Fatal("double attach accepted")
		}
	}()
	tx := link.NewHalf(eng, "x", 64, 1)
	sw.AttachLink(0, tx, core.NewSharedCredits(1024))
}

func TestConstructorValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	params := core.Preset1Q()
	for _, fn := range []func(){
		func() { New(eng, 1, "x", 0, &params, func(int) int { return 0 }, 4, 64) },
		func() { New(eng, 1, "x", 2, &params, func(int) int { return 0 }, 4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad construction accepted")
				}
			}()
			fn()
		}()
	}
	// The port limit is named in the message (network.Build reports the
	// same limit as an error before it ever gets here).
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "65 ports") || !strings.Contains(msg, "limit is 64") {
			t.Fatalf("65-port switch: panic %q does not name the limit", msg)
		}
	}()
	New(eng, 1, "x", MaxPorts+1, &params, func(int) int { return 0 }, 4, 64)
}
