package network

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestFig3SwitchOperation walks the CCFIT switch behaviour of the
// paper's Fig. 3 as an executable narrative. Topology: Config #1;
// nodes 1 and 2 blast node 4 while node 5 joins locally, creating the
// congestion point at switch B's port to node 4.
//
//	Event #1/#2: packets arrive in the NFQ; crossing the detection
//	            threshold allocates a CFQ + CAM line (root).
//	Event #3:   post-processing moves congested packets NFQ -> CFQ.
//	Event #4/#5: the CFQ's occupancy drives Stop/Go flow control
//	            upstream, and the congestion info propagates so the
//	            upstream switch allocates its own (non-root) CFQ.
//	Event #6:   when traffic stops, CFQs drain and deallocate
//	            bottom-up, notifying upstream.
//	Event #7:   packets crossing the congested output port get FECN.
func TestFig3SwitchOperation(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	p := core.PresetCCFIT()
	p.Tracer = ring
	n, err := Build(topo.Config1(), p, Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	addFlows(t, n, []traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: 150_000, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: 150_000, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: 150_000, Rate: 1.0},
	})

	swB := n.SwitchByDevice(topo.Config1SwitchB)
	swA := n.SwitchByDevice(topo.Config1SwitchA)
	// Switch B input port 4 receives the remote contributors (F1, F2)
	// from switch A; port 2 receives the local contributor (F5).
	isoB := swB.InputDisc(4).(*core.IsolationUnit)
	isoA1 := swA.InputDisc(1).(*core.IsolationUnit)

	// --- Events #1..#3: detection and isolation at switch B.
	n.Run(20_000)
	line, ok := isoB.LineInfo(0)
	if !ok {
		t.Fatal("no CAM line at switch B port 4 after sustained congestion")
	}
	if line.Dest != 4 {
		t.Fatalf("line tracks %d, want the hot destination 4", line.Dest)
	}
	if !line.Root {
		t.Fatal("switch B's CFQ must be the tree root (1 hop from node 4)")
	}
	if line.Out != 1 {
		t.Fatalf("line points at output %d, want 1 (to node 4)", line.Out)
	}
	if isoB.Stats().PostMoves == 0 {
		t.Fatal("post-processing never moved a congested packet")
	}

	// --- Event #4/#5 + propagation: switch A mirrors the tree.
	if swA.OutCAM(3).ActiveLines() == 0 {
		t.Fatal("switch A's output CAM (port 3 to B) has no line: propagation failed")
	}
	lineA, okA := isoA1.LineInfo(0)
	if !okA {
		t.Fatal("switch A input port 1 did not isolate the congested flow")
	}
	if lineA.Root {
		t.Fatal("switch A's CFQ wrongly claims to be the tree root")
	}
	// Direct CFQ-to-CFQ forwarding must be in use A -> B.
	if isoB.Stats().DirectArrivals == 0 {
		t.Fatal("no direct CFQ-to-CFQ deliveries into switch B")
	}

	// --- Event #7: marking at the congested output port, and the IA
	// reaction (Fig. 4): BECNs raise the contributors' CCTI.
	if swB.Stats().Marked == 0 {
		t.Fatal("no packets FECN-marked at the congested port")
	}
	for _, src := range []int{1, 2, 5} {
		if n.Nodes[src].Stats().BECNsReceived == 0 {
			t.Fatalf("contributor %d received no BECN", src)
		}
		if n.Nodes[src].Throttler().CCTI(4) == 0 {
			t.Fatalf("contributor %d's CCTI[4] never rose", src)
		}
	}
	// The victim path stays unthrottled: node 0 sends nothing, but
	// node 6 (idle) must have no CCTI state either.
	if n.Nodes[6].Throttler().CCTI(4) != 0 {
		t.Fatal("idle node accumulated throttling state")
	}

	// --- Event #6: teardown after the flows stop.
	n.Run(300_000)
	if isoB.ActiveLines() != 0 || isoA1.ActiveLines() != 0 {
		t.Fatal("CFQs not deallocated after the tree vanished")
	}
	if swA.OutCAM(3).ActiveLines() != 0 {
		t.Fatal("switch A's output CAM line not torn down")
	}
	// Trace ordering: the root detection precedes the upstream lazy
	// alloc, which precedes any Stop; deallocs come last.
	var firstDetect, firstLazy, firstStop, lastDealloc sim.Cycle
	lastDealloc = -1
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case trace.EvDetect:
			if firstDetect == 0 {
				firstDetect = ev.At
			}
		case trace.EvLazyAlloc:
			if firstLazy == 0 {
				firstLazy = ev.At
			}
		case trace.EvStop:
			if firstStop == 0 {
				firstStop = ev.At
			}
		case trace.EvDealloc:
			lastDealloc = ev.At
		}
	}
	if firstDetect == 0 || firstLazy == 0 {
		t.Fatal("trace lacks detection or propagation events")
	}
	if firstDetect > firstLazy {
		t.Fatalf("lazy alloc (%d) before first detection (%d)", firstLazy, firstDetect)
	}
	if lastDealloc < 0 {
		t.Fatal("no deallocation traced")
	}
	// CCTI decays to zero once the congestion is gone (Fig. 4 #7).
	for _, src := range []int{1, 2, 5} {
		if got := n.Nodes[src].Throttler().CCTI(4); got != 0 {
			t.Fatalf("contributor %d's CCTI[4] stuck at %d after recovery", src, got)
		}
	}
}

// TestFig4IAOperation focuses on the input adapter side (Fig. 4): the
// switch propagates the congestion point to the IA, the IA isolates
// the congested packets in its own CFQ, and the victim traffic of the
// same source flows around them.
func TestFig4IAOperation(t *testing.T) {
	p := core.PresetCCFIT()
	n, err := Build(topo.Config1(), p, Options{Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 sends BOTH a hot flow (to 4) and a victim flow (to 3):
	// without IA isolation the victim would be stuck behind the hot
	// packets in the IA output buffer.
	addFlows(t, n, []traffic.Flow{
		{ID: 10, Src: 1, Dst: 4, Start: 0, End: 300_000, Rate: 0.7},
		{ID: 11, Src: 1, Dst: 3, Start: 0, End: 300_000, Rate: 0.3},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: 300_000, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: 300_000, Rate: 1.0},
		{ID: 6, Src: 6, Dst: 4, Start: 0, End: 300_000, Rate: 1.0},
	})
	n.Run(300_000)
	ia := n.Nodes[1].Disc().(*core.IsolationUnit)
	if ia.Stats().LazyAllocs+ia.Stats().Detections == 0 {
		t.Fatal("the IA never allocated a CFQ")
	}
	bins := int(sim.Cycle(300_000) / n.Collector.BinCycles())
	victim := n.Collector.MeanFlowBandwidth(11, bins/2, bins)
	// The victim asked for 0.75 GB/s; it must get nearly all of it
	// even though its sibling flow is being throttled hard.
	if victim < 0.6 {
		t.Fatalf("victim flow sharing the source got %.2f GB/s, want ~0.75", victim)
	}
}
