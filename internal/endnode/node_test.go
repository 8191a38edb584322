package endnode

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// wire is a test double for the switch at the far end of the node's
// uplink: it records packets, when they arrive, and control messages the
// node sends.
type wire struct {
	eng  *sim.Engine
	pkts []*pkt.Packet
	at   []sim.Cycle
	ctls []link.Control
}

func (w *wire) ReceivePacket(p *pkt.Packet, cfq int) {
	w.pkts = append(w.pkts, p)
	w.at = append(w.at, w.eng.Now())
}

func (w *wire) ReceiveControl(m link.Control) { w.ctls = append(w.ctls, m) }

// rig builds a node attached to a recording wire.
func rig(t *testing.T, p core.Params) (*sim.Engine, *Node, *wire, *pkt.IDGen) {
	t.Helper()
	eng := sim.NewEngine(3)
	ids := &pkt.IDGen{}
	n := New(eng, 0, &p, 8, ids, nil)
	w := &wire{eng: eng}
	tx := link.NewHalf(eng, "up", 64, 2)
	tx.SetReceivers(w, w)
	n.AttachLink(tx, core.NewSharedCredits(64<<10))
	return eng, n, w, ids
}

func TestOfferAndAdVOQCap(t *testing.T) {
	p := core.PresetCCFIT()
	p.AdVOQCap = 2
	eng := sim.NewEngine(1)
	ids := &pkt.IDGen{}
	n := New(eng, 0, &p, 8, ids, nil)
	for i := 0; i < 2; i++ {
		if !n.Offer(pkt.NewData(ids, 0, 3, 0, pkt.MTU, 0)) {
			t.Fatalf("offer %d rejected below cap", i)
		}
	}
	if n.Offer(pkt.NewData(ids, 0, 3, 0, pkt.MTU, 0)) {
		t.Fatal("offer accepted above AdVOQ cap")
	}
	if n.Stats().Offered != 2 || n.Stats().Rejected != 1 {
		t.Fatalf("stats: %+v", n.Stats())
	}
	if n.AdVOQLen(3) != 2 {
		t.Fatalf("advoq len = %d", n.AdVOQLen(3))
	}
}

func TestOfferBadDestinationPanics(t *testing.T) {
	p := core.PresetCCFIT()
	eng := sim.NewEngine(1)
	ids := &pkt.IDGen{}
	n := New(eng, 0, &p, 8, ids, nil)
	for _, dst := range []int{-1, 8, 0 /* self */} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("dest %d accepted", dst)
				}
			}()
			n.Offer(pkt.NewData(ids, 0, dst, 0, 64, 0))
		}()
	}
}

func TestInjectionPipelineSendsAtLineRate(t *testing.T) {
	eng, n, w, ids := rig(t, core.Preset1Q())
	for i := 0; i < 10; i++ {
		n.Offer(pkt.NewData(ids, 0, 3, 0, pkt.MTU, 0))
	}
	eng.Run(32 * 12) // 10 MTUs at 32 cycles each + slack
	if len(w.pkts) != 10 {
		t.Fatalf("sent %d packets, want 10", len(w.pkts))
	}
	if n.Stats().Sent != 10 {
		t.Fatalf("Sent stat = %d", n.Stats().Sent)
	}
	// Line rate: last packet's arrival no later than 10*32 + pipeline slack.
	if got := eng.Now(); got > 32*12 {
		t.Fatalf("took %d cycles", got)
	}
}

func TestCreditGateBlocksInjection(t *testing.T) {
	eng := sim.NewEngine(3)
	ids := &pkt.IDGen{}
	p := core.Preset1Q()
	n := New(eng, 0, &p, 8, ids, nil)
	w := &wire{eng: eng}
	tx := link.NewHalf(eng, "up", 64, 2)
	tx.SetReceivers(w, w)
	n.AttachLink(tx, core.NewSharedCredits(2*pkt.MTU)) // room for 2 MTUs only
	for i := 0; i < 6; i++ {
		n.Offer(pkt.NewData(ids, 0, 3, 0, pkt.MTU, 0))
	}
	eng.Run(1000)
	if len(w.pkts) != 2 {
		t.Fatalf("sent %d packets with 2 MTUs of credit, want 2", len(w.pkts))
	}
	// Returning credit resumes transmission.
	n.ReceiveControl(link.Control{Kind: link.Credit, Bytes: pkt.MTU, Dest: 3})
	eng.RunFor(100)
	if len(w.pkts) != 3 {
		t.Fatalf("sent %d after credit return, want 3", len(w.pkts))
	}
}

func TestSinkConsumesAndReturnsCredit(t *testing.T) {
	eng, n, w, ids := rig(t, core.Preset1Q())
	deliveries := 0
	n.SetDeliverHook(func(p *pkt.Packet, now sim.Cycle) { deliveries++ })
	eng.Run(5) // advance so the delivery timestamp is observable
	dp := pkt.NewData(ids, 3, 0, 7, pkt.MTU, 0)
	n.ReceivePacket(dp, -1)
	eng.RunFor(5)
	if deliveries != 1 || n.Stats().Delivered != 1 {
		t.Fatal("delivery not recorded")
	}
	if dp.Delivered == 0 {
		t.Fatal("delivery timestamp not set")
	}
	// An immediate credit return must have been sent upstream.
	found := false
	for _, c := range w.ctls {
		if c.Kind == link.Credit && c.Bytes == pkt.MTU {
			found = true
		}
	}
	if !found {
		t.Fatalf("no credit return; ctls=%v", w.ctls)
	}
}

func TestMisroutedDeliveryPanics(t *testing.T) {
	_, n, _, ids := rig(t, core.Preset1Q())
	defer func() {
		if recover() == nil {
			t.Fatal("misrouted packet accepted")
		}
	}()
	n.ReceivePacket(pkt.NewData(ids, 3, 5 /* not this node */, 7, 64, 0), -1)
}

func TestFECNTriggersBECN(t *testing.T) {
	eng, n, w, ids := rig(t, core.PresetCCFIT())
	dp := pkt.NewData(ids, 3, 0, 7, pkt.MTU, 0)
	dp.FECN = true
	n.ReceivePacket(dp, -1)
	eng.Run(50)
	// A BECN addressed to source 3 naming this node as hot dest.
	var becn *pkt.Packet
	for _, p := range w.pkts {
		if p.Kind == pkt.BECN {
			becn = p
		}
	}
	if becn == nil {
		t.Fatal("no BECN sent after FECN delivery")
	}
	if becn.Dst != 3 || becn.CongDst != 0 {
		t.Fatalf("BECN addressing: %+v", becn)
	}
	if n.Stats().FECNSeen != 1 || n.Stats().BECNsSent != 1 {
		t.Fatalf("stats: %+v", n.Stats())
	}
}

func TestBECNPacingLimitsRate(t *testing.T) {
	p := core.PresetCCFIT() // pacing = CCTITimer/2
	eng, n, w, ids := rig(t, p)
	for i := 0; i < 20; i++ {
		dp := pkt.NewData(ids, 3, 0, 7, pkt.MTU, 0)
		dp.FECN = true
		n.ReceivePacket(dp, -1)
	}
	eng.Run(100)
	becns := 0
	for _, q := range w.pkts {
		if q.Kind == pkt.BECN {
			becns++
		}
	}
	if becns != 1 {
		t.Fatalf("pacing broken: %d BECNs for a burst of marked packets, want 1", becns)
	}
	// After the pacing window another BECN may go out.
	eng.Run(p.BECNPacing + 200)
	dp := pkt.NewData(ids, 3, 0, 7, pkt.MTU, 0)
	dp.FECN = true
	n.ReceivePacket(dp, -1)
	eng.RunFor(100)
	becns = 0
	for _, q := range w.pkts {
		if q.Kind == pkt.BECN {
			becns++
		}
	}
	if becns != 2 {
		t.Fatalf("BECNs after window = %d, want 2", becns)
	}
}

func TestNoBECNWithoutThrottling(t *testing.T) {
	eng, n, w, ids := rig(t, core.PresetFBICM())
	dp := pkt.NewData(ids, 3, 0, 7, pkt.MTU, 0)
	dp.FECN = true
	n.ReceivePacket(dp, -1)
	eng.Run(50)
	for _, q := range w.pkts {
		if q.Kind == pkt.BECN {
			t.Fatal("FBICM node generated a BECN")
		}
	}
}

// BECNs towards dest 4 raise its IRD above an MTU's serialization time, so
// the gate, not the link, spaces a burst's packets: each after the first
// reaches the wire later than it does without the BECNs.
func TestBECNReceiptThrottlesFlow(t *testing.T) {
	const becns = 4
	arrivals := func(becns int) []sim.Cycle {
		eng, n, w, ids := rig(t, core.PresetCCFIT())
		for i := 0; i < becns; i++ {
			n.ReceivePacket(pkt.NewBECN(ids, 4, 0, 4, 0), -1)
		}
		if n.Throttler().CCTI(4) != becns || n.Stats().BECNsReceived != becns {
			t.Fatalf("CCTI[4] = %d, %d BECNs counted after %d", n.Throttler().CCTI(4), n.Stats().BECNsReceived, becns)
		}
		for i := 0; i < 4; i++ {
			n.Offer(pkt.NewData(ids, 0, 4, 0, pkt.MTU, 0))
		}
		eng.Run(1000)
		if len(w.at) != 4 {
			t.Fatalf("%d BECNs: %d of 4 packets on the wire", becns, len(w.at))
		}
		return w.at
	}
	gated, free := arrivals(becns), arrivals(0)
	if gated[0] != free[0] {
		t.Errorf("first packet at %d, %d without BECNs: the gate held a packet no injection preceded", gated[0], free[0])
	}
	for i := 1; i < len(gated); i++ {
		if gated[i] <= free[i] {
			t.Errorf("packet %d at %d, %d without BECNs: the gate did not delay it", i, gated[i], free[i])
		}
	}
}

func TestThrottledDestDoesNotBlockOthers(t *testing.T) {
	eng, n, w, ids := rig(t, core.PresetCCFIT())
	// Heavy throttling towards dest 4.
	for i := 0; i < 40; i++ {
		n.ReceivePacket(pkt.NewBECN(ids, 4, 0, 4, 0), -1)
	}
	n.Offer(pkt.NewData(ids, 0, 4, 0, pkt.MTU, 0))
	n.Offer(pkt.NewData(ids, 0, 3, 1, pkt.MTU, 0))
	eng.Run(200)
	sentTo3 := false
	for _, q := range w.pkts {
		if q.Kind == pkt.Data && q.Dst == 3 {
			sentTo3 = true
		}
	}
	if !sentTo3 {
		t.Fatal("unthrottled destination blocked behind a throttled one")
	}
}

func TestIsolationAtIAOutputBuffer(t *testing.T) {
	// CCFIT IAs have NFQ+CFQs (Fig. 2): when the switch announces a
	// congestion point via CFQAlloc, the IA isolates matching packets.
	eng, n, _, ids := rig(t, core.PresetCCFIT())
	n.ReceiveControl(link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: []int{4}})
	n.Offer(pkt.NewData(ids, 0, 4, 0, pkt.MTU, 0))
	eng.Run(10)
	iso, ok := n.Disc().(*core.IsolationUnit)
	if !ok {
		t.Fatal("CCFIT IA output buffer is not an isolation unit")
	}
	if iso.ActiveLines() != 1 {
		t.Fatalf("IA did not isolate: %d active lines", iso.ActiveLines())
	}
}

func TestVOQnetIAUsesPerDestQueues(t *testing.T) {
	p := core.PresetVOQnet()
	eng := sim.NewEngine(1)
	ids := &pkt.IDGen{}
	n := New(eng, 0, &p, 8, ids, nil)
	if _, ok := n.Disc().(core.DestOccupancy); !ok {
		t.Fatal("VOQnet IA output buffer lacks per-destination queues")
	}
}

func TestDoubleAttachPanics(t *testing.T) {
	eng, n, _, _ := rig(t, core.Preset1Q())
	defer func() {
		if recover() == nil {
			t.Fatal("double attach accepted")
		}
	}()
	tx := link.NewHalf(eng, "x", 64, 1)
	n.AttachLink(tx, core.NewSharedCredits(1024))
}

// refPickAdVOQ is the predicate-driven scan pickAdVOQ ran before the
// occupancy bitmap: every one of the N slots is probed in round-robin
// order from the pointer. It has no side effects; it returns the slot
// the scan would serve (-1 for none) and whether the IRD gate stalled
// some head on the way.
func refPickAdVOQ(n *Node, now sim.Cycle) (pick int, stalled bool) {
	perDest, _ := n.disc.(core.DestOccupancy)
	for k := 0; k < n.numEndpoints; k++ {
		i := (n.advoqRR.Pointer() + k) % n.numEndpoints
		h := n.advoqs[i].Head()
		if h == nil {
			continue
		}
		if perDest != nil && perDest.DestBytes(i) > 0 {
			continue
		}
		if n.throttler != nil && !n.throttler.MayInject(i, now) {
			stalled = true
			continue
		}
		if n.disc.Fits(h.Size) {
			return i, stalled
		}
	}
	return -1, stalled
}

// The bitmap walk must pick exactly what the full predicate scan picked,
// advance the pointer the same way and, on a miss, report the same IRD
// stall (nextDue reads it) —
// over random occupancy, throttle and fit patterns, with the pointer
// parked on and around the bitmap's word boundaries.
func TestPickAdVOQEqualsPredicateScan(t *testing.T) {
	for _, preset := range []core.Params{core.PresetCCFIT(), core.PresetVOQnet(), core.Preset1Q()} {
		for _, size := range []int{63, 64, 65, 512} {
			preset, size := preset, size
			t.Run(fmt.Sprintf("%s/N=%d", preset.Name, size), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(size)))
				p := preset
				eng := sim.NewEngine(5)
				ids := &pkt.IDGen{}
				n := New(eng, 0, &p, size, ids, nil)
				boundary := []int{0, 1, 62, 63, 64, size - 2, size - 1}
				picks, misses, stalls := 0, 0, 0
				for step := 0; step < 4000; step++ {
					now := sim.Cycle(step * 7)
					// Occupancy: a few offers with mixed sizes, biased to
					// the slots next to word boundaries.
					for k := rng.Intn(4); k > 0; k-- {
						dst := 1 + rng.Intn(size-1)
						if rng.Intn(3) == 0 {
							dst = boundary[rng.Intn(len(boundary))]
						}
						if dst == 0 || dst >= size {
							continue
						}
						n.Offer(pkt.NewData(ids, 0, dst, 0, 64+rng.Intn(pkt.MTU-63), now))
					}
					// Throttle state: BECNs raise a destination's IRD.
					if n.throttler != nil && rng.Intn(2) == 0 {
						n.throttler.OnBECN(1 + rng.Intn(size-1))
					}
					// Fit: fill or drain the output buffer behind the AdVOQs.
					switch rng.Intn(3) {
					case 0:
						f := pkt.NewData(ids, 0, 1+rng.Intn(size-1), 0, pkt.MTU, now)
						if n.disc.Fits(f.Size) {
							n.disc.Enqueue(f, -1)
						}
					case 1:
						if reqs := n.disc.Requests(now, nil); len(reqs) > 0 {
							n.disc.Pop(reqs[rng.Intn(len(reqs))].QID)
						}
					}
					// Pointer: sometimes park it on a word boundary.
					if rng.Intn(4) == 0 {
						n.advoqRR.Served((boundary[rng.Intn(len(boundary))] + size - 1) % size)
					}

					want, wantStalled := refPickAdVOQ(n, now)
					got := n.pickAdVOQ(now)
					if got != want {
						t.Fatalf("step %d: picked %d, predicate scan picks %d (pointer %d)", step, got, want, n.advoqRR.Pointer())
					}
					if got < 0 {
						if n.stalled != wantStalled {
							t.Fatalf("step %d: missed with stalled %v, predicate scan %v", step, n.stalled, wantStalled)
						}
						if wantStalled {
							stalls++
						}
						misses++
						continue
					}
					picks++
					if ptr := n.advoqRR.Pointer(); ptr != (got+1)%size {
						t.Fatalf("step %d: pointer %d after serving %d", step, ptr, got)
					}
					// What post does with a pick, minus the staging enqueue
					// (the output buffer is driven independently above).
					n.advoqs[got].Pop()
					if n.advoqs[got].Empty() {
						n.occupied.Remove(got)
					}
					if n.throttler != nil {
						n.throttler.Injected(got, now)
					}
				}
				if picks < 500 || misses == 0 || (n.throttler != nil && stalls == 0) {
					t.Fatalf("pattern too thin: %d picks, %d misses, %d stalls", picks, misses, stalls)
				}
			})
		}
	}
}
