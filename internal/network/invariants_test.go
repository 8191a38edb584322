package network

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestZeroLoadLatency pins the pipeline timing: one MTU from node 0 to
// node 3 on Config #1 crosses IA staging, two switches and three links
// with no contention. The expected latency decomposes into the model's
// stages, so a regression in any of them shifts this number.
func TestZeroLoadLatency(t *testing.T) {
	n := buildC1(t, core.Preset1Q())
	addFlows(t, n, []traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: 33, Rate: 1.0},
	})
	n.Run(5000)
	if n.Collector.DeliveredPkts != 1 {
		t.Fatalf("delivered %d", n.Collector.DeliveredPkts)
	}
	// Stages: generator->AdVOQ (cycle 31, when the accumulator fills),
	// AdVOQ->IA buffer (1 cycle), IA link 32+4, switch A crossbar 16
	// (5 GB/s) + stage->interswitch link 16+4, switch B crossbar 32 +
	// stage->endpoint link 32+4, plus per-hop arbitration cycles.
	lat := n.Collector.AvgLatencyNS()
	min := sim.NSFromCycles(32 + 4 + 16 + 16 + 4 + 32 + 32 + 4) // ideal pipe
	max := min + sim.NSFromCycles(40)                           // arbitration slack
	if lat < min*0.8 || lat > max {
		t.Fatalf("zero-load latency %.0f ns outside [%.0f, %.0f]", lat, min*0.8, max)
	}
}

// TestVOQnetHotspotDoesNotSpreadCongestion is the VOQnet headline
// property made testable: a brutal 6:1 hot spot leaves an unrelated
// victim flow completely untouched, because hot packets can only ever
// occupy their own per-destination queues.
func TestVOQnetHotspotDoesNotSpreadCongestion(t *testing.T) {
	f := topo.Config2()
	n, err := Build(f.Topology, core.PresetVOQnet(), Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	end := sim.Cycle(300_000)
	var flows []traffic.Flow
	// Six sources blast node 7.
	for s := 0; s < 6; s++ {
		flows = append(flows, traffic.Flow{ID: s, Src: s, Dst: 7, Start: 0, End: end, Rate: 1.0})
	}
	// The victim: 6 -> 5 (crosses the tree near the hot paths).
	flows = append(flows, traffic.Flow{ID: 99, Src: 6, Dst: 5, Start: 0, End: end, Rate: 1.0})
	addFlows(t, n, flows)
	n.Run(end)
	bins := int(end / n.Collector.BinCycles())
	victim := n.Collector.MeanFlowBandwidth(99, bins/2, bins)
	// A single flow through VOQnet's 4 KB (2-MTU) per-destination
	// queues tops out at 32/36 of line rate = 2.22 GB/s under this
	// simulator's store-and-forward credit loop (see DESIGN.md); the
	// invariant under test is that the hot spot costs nothing beyond
	// that ceiling.
	if victim < 2.2 {
		t.Fatalf("VOQnet victim at %.2f GB/s; congestion spread", victim)
	}
}

// TestCCFITLeavesNoResidue: after traffic ends and queues drain, every
// CFQ, CAM line, out-CAM line and congestion state must be released —
// on switches and IAs — for all three configurations.
func TestCCFITLeavesNoResidue(t *testing.T) {
	type build func() (*Network, []traffic.Flow)
	cases := map[string]build{
		"config1": func() (*Network, []traffic.Flow) {
			n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			return n, []traffic.Flow{
				{ID: 1, Src: 1, Dst: 4, Start: 0, End: 100_000, Rate: 1.0},
				{ID: 2, Src: 2, Dst: 4, Start: 0, End: 100_000, Rate: 1.0},
				{ID: 5, Src: 5, Dst: 4, Start: 0, End: 100_000, Rate: 1.0},
			}
		},
		"config2": func() (*Network, []traffic.Flow) {
			f := topo.Config2()
			n, err := Build(f.Topology, core.PresetCCFIT(), Options{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			var fl []traffic.Flow
			for s := 0; s < 5; s++ {
				fl = append(fl, traffic.Flow{ID: s, Src: s, Dst: 7, Start: 0, End: 100_000, Rate: 1.0})
			}
			return n, fl
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			n, flows := mk()
			addFlows(t, n, flows)
			n.Run(400_000) // traffic off at 100k, generous drain
			op, _ := n.TotalOffered()
			dp, _ := n.TotalDelivered()
			if op != dp {
				t.Fatalf("%d offered, %d delivered", op, dp)
			}
			for _, sw := range n.Switches {
				for i := 0; i < n.portCount(sw); i++ {
					if iso, ok := sw.InputDisc(i).(*core.IsolationUnit); ok {
						if iso.ActiveLines() != 0 {
							t.Fatalf("%s port %d leaks CAM lines", sw.Name(), i)
						}
						if iso.UsedBytes() != 0 {
							t.Fatalf("%s port %d holds %d bytes", sw.Name(), i, iso.UsedBytes())
						}
					}
					if sw.OutCAM(i).ActiveLines() != 0 {
						t.Fatalf("%s port %d leaks out-CAM lines", sw.Name(), i)
					}
					if sw.MarkState(i).Congested() {
						t.Fatalf("%s port %d stuck in congestion state", sw.Name(), i)
					}
				}
			}
			for _, nd := range n.Nodes {
				if iso, ok := nd.Disc().(*core.IsolationUnit); ok && iso.ActiveLines() != 0 {
					t.Fatalf("node %d IA leaks CAM lines", nd.ID())
				}
			}
		})
	}
}

// randomTree builds a random star-of-stars topology: one core switch,
// 1..4 edge switches, 1..3 endpoints per edge switch.
func randomTree(r *rand.Rand) *topo.Topology {
	b := topo.NewBuilder("random")
	edges := 1 + r.Intn(4)
	core := b.AddSwitch("core", edges)
	for e := 0; e < edges; e++ {
		eps := 1 + r.Intn(3)
		sw := b.AddSwitch("edge", eps+1)
		b.Connect(sw, eps, core, e)
		for i := 0; i < eps; i++ {
			ep := b.AddEndpoint("n")
			b.Connect(ep, 0, sw, i)
		}
	}
	return b.MustBuild()
}

// TestRandomNetworksLosslessProperty: random topologies, random flow
// sets, every scheme — after drain, offered == delivered, per-flow FIFO
// holds, and no buffer is left occupied.
func TestRandomNetworksLosslessProperty(t *testing.T) {
	schemes := []core.Params{
		core.Preset1Q(), core.PresetFBICM(), core.PresetITh(),
		core.PresetCCFIT(), core.PresetVOQnet(), core.PresetDBBM(),
		core.PresetVOQswOnly(), core.PresetOBQA(),
	}
	checked := 0
	f := func(seed int64, sc uint8) bool {
		r := rand.New(rand.NewSource(seed))
		tp := randomTree(r)
		ne := tp.NumEndpoints()
		if ne < 2 {
			return true
		}
		p := schemes[int(sc)%len(schemes)]
		n, err := Build(tp, p, Options{Seed: seed})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		nf := 1 + r.Intn(5)
		var flows []traffic.Flow
		for i := 0; i < nf; i++ {
			src := r.Intn(ne)
			dst := r.Intn(ne)
			if dst == src {
				dst = (dst + 1) % ne
			}
			flows = append(flows, traffic.Flow{
				ID: i, Src: src, Dst: dst,
				Start: sim.Cycle(r.Intn(2000)),
				End:   sim.Cycle(2000 + r.Intn(20_000)),
				Rate:  0.2 + r.Float64()*0.8,
			})
		}
		lastID := map[int]uint64{}
		order := true
		for _, nd := range n.Nodes {
			nd := nd
			nd.SetDeliverHook(func(pk *pkt.Packet, now sim.Cycle) {
				n.Collector.Delivered(pk, now)
				if pk.ID <= lastID[pk.Flow] {
					order = false
				}
				lastID[pk.Flow] = pk.ID
			})
		}
		if err := n.AddFlows(flows); err != nil {
			t.Logf("flows: %v", err)
			return false
		}
		n.Run(400_000)
		op, ob := n.TotalOffered()
		dp, db := n.TotalDelivered()
		if op != dp || ob != db || !order {
			t.Logf("seed %d scheme %s: offered %d/%d delivered %d/%d order=%v",
				seed, p.Name, op, ob, dp, db, order)
			return false
		}
		checked++
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("property never exercised a network")
	}
}

// TestBECNTravelsFaster: BECN priority means a notification crosses a
// congested network far faster than the data packets around it.
func TestBECNPriorityEndToEnd(t *testing.T) {
	n := buildC1(t, core.PresetITh())
	addFlows(t, n, []traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
		{ID: 6, Src: 6, Dst: 4, Start: 0, End: 200_000, Rate: 1.0},
	})
	n.Run(200_000)
	// The throttlers at sources 1 and 2 (across the fabric from the
	// hot node) must have seen BECNs despite full queues en route.
	for _, src := range []int{1, 2} {
		if n.Nodes[src].Stats().BECNsReceived == 0 {
			t.Fatalf("node %d never received a BECN through the congested fabric", src)
		}
	}
}

// TestThroughputConservation: delivered bytes can never exceed offered
// bytes, and the collector agrees with node-level accounting.
func TestThroughputConservation(t *testing.T) {
	for _, p := range []core.Params{core.PresetCCFIT(), core.PresetITh()} {
		f := topo.Config2()
		n, err := Build(f.Topology, p, Options{Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		var flows []traffic.Flow
		for s := 0; s < 8; s++ {
			flows = append(flows, traffic.Flow{
				ID: s, Src: s, Dst: traffic.UniformDst, Start: 0, End: 100_000, Rate: 0.9,
			})
		}
		addFlows(t, n, flows)
		n.Run(100_000) // stop mid-flight: in-transit packets allowed
		_, ob := n.TotalOffered()
		_, db := n.TotalDelivered()
		if db > ob {
			t.Fatalf("%s: delivered %d > offered %d", p.Name, db, ob)
		}
		if int64(db) != n.Collector.DeliveredBytes {
			t.Fatalf("%s: node/collector disagree: %d vs %d", p.Name, db, n.Collector.DeliveredBytes)
		}
		if n.Collector.LatencyPercentileNS(0.5) <= 0 {
			t.Fatalf("%s: no latency percentile", p.Name)
		}
	}
}

// TestReleaseWhileBufferedFailsConservation seeds a release after
// handoff: node 0 holds a packet (paused, so it cannot send it) whose
// owner released it to the pool anyway. The pool's bytes out fall below
// the bytes the fabric buffers, and the next periodic audit says so.
func TestReleaseWhileBufferedFailsConservation(t *testing.T) {
	var seen []*invariant.Violation
	n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{
		Seed:        1,
		OnViolation: func(v *invariant.Violation) { seen = append(seen, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Nodes[0].Pause(4096)
	p := n.NewPacket(0, 3, 0)
	if !n.Nodes[0].Offer(p) {
		t.Fatal("node 0 refused the packet")
	}
	n.Eng.At(100, func() { n.pool.Release(p) })
	n.Run(2048)
	if len(seen) == 0 {
		t.Fatal("release while buffered passed every audit")
	}
	v := seen[0]
	if v.Check != "conservation" || v.Cycle != 1024 {
		t.Fatalf("first violation %v, want conservation at the audit of cycle 1024", v)
	}
	if want := "ledger: pool out=0B buffered=2048B"; !strings.Contains(v.Snapshot, want) {
		t.Fatalf("snapshot does not show %q:\n%s", want, v.Snapshot)
	}
}

// TestLeafSpineOversubscribed runs a CCFIT hot spot on an
// oversubscribed leaf-spine fabric: losslessness and victim protection
// must hold on topologies beyond the paper's three configurations.
func TestLeafSpineOversubscribed(t *testing.T) {
	ls, err := topo.NewLeafSpine(4, 4, 2, 1) // 16 nodes, 2:1 oversubscribed
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(ls.Topology, core.PresetCCFIT(), Options{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	end := sim.Cycle(250_000)
	flows := []traffic.Flow{
		// Victim: cross-fabric flow 0 -> 12.
		{ID: 0, Src: 0, Dst: 12, Start: 0, End: end, Rate: 1.0},
	}
	// Hot spot: five cross-fabric sources onto node 13.
	for i, src := range []int{1, 4, 5, 8, 9} {
		flows = append(flows, traffic.Flow{ID: 10 + i, Src: src, Dst: 13, Start: 0, End: end, Rate: 1.0})
	}
	addFlows(t, n, flows)
	n.Run(end + 150_000)
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if op != dp {
		t.Fatalf("leaf-spine lost packets: %d vs %d", op, dp)
	}
	bins := int(end / n.Collector.BinCycles())
	victim := n.Collector.MeanFlowBandwidth(0, bins/2, bins)
	// The victim shares a 2-spine fabric with the tree but CCFIT must
	// keep it at a healthy share of its 2.5 GB/s.
	if victim < 1.5 {
		t.Fatalf("victim at %.2f GB/s on leaf-spine under CCFIT", victim)
	}
}

// TestLinkLoads checks the utilization accounting: a single full-rate
// flow loads exactly the links on its path at ~100% and leaves every
// other link idle.
func TestLinkLoads(t *testing.T) {
	n := buildC1(t, core.Preset1Q())
	addFlows(t, n, []traffic.Flow{
		{ID: 0, Src: 5, Dst: 6, Start: 0, End: 100_000, Rate: 1.0},
	})
	n.Run(100_000)
	busy, idle := 0, 0
	for _, l := range n.LinkLoads() {
		switch {
		case l.Utilization > 0.9:
			busy++
			if l.Pkts == 0 || l.Bytes == 0 {
				t.Fatalf("busy link %s reports no traffic", l.Name)
			}
		case l.Utilization < 0.05:
			idle++
		default:
			t.Fatalf("link %s at ambiguous utilization %.2f", l.Name, l.Utilization)
		}
	}
	// Path 5 -> swB -> 6 loads two directions; everything else idles
	// (BECNs and credits are out of band).
	if busy != 2 {
		t.Fatalf("busy directions = %d, want 2", busy)
	}
	if idle != len(n.LinkLoads())-2 {
		t.Fatalf("idle directions = %d of %d", idle, len(n.LinkLoads()))
	}
}
