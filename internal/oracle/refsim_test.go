package oracle

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// twoHop builds the smallest multi-hop topology: a <-> sw <-> b, with
// uniform links of bpc bytes/cycle and delay d.
func twoHop(bpc int, d sim.Cycle) *topo.Topology {
	b := topo.NewBuilder("twohop")
	b.SetDefaultLink(bpc, d)
	sw := b.AddSwitch("sw", 2)
	a := b.AddEndpoint("a")
	c := b.AddEndpoint("b")
	b.Connect(a, 0, sw, 0)
	b.Connect(c, 0, sw, 1)
	return b.MustBuild()
}

// TestRefSimHandComputed pins the reference model against arithmetic
// done by hand: one packet over two store-and-forward hops takes
// 2*(serialization + delay) cycles plus one crossbar transfer.
func TestRefSimHandComputed(t *testing.T) {
	// bpc=64, size=2048 => ser=32; delay=4. At rate 1 the accumulator
	// reaches one packet at cycle 31, the last cycle of the window.
	rs, err := NewRefSim(twoHop(64, 4), []RefFlow{
		{ID: 7, Src: 0, Dst: 1, Start: 0, End: 32, Rate: 1, Size: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rs.Run(sim.Cycle(math.MaxInt64 / 2))
	st := res.Flows[7]
	if st.OfferedPkts != 1 || st.DeliveredPkts != 1 {
		t.Fatalf("offered=%d delivered=%d, want 1/1", st.OfferedPkts, st.DeliveredPkts)
	}
	// From emission: hop 1 serializes 32 cycles then propagates 4; the
	// switch's crossbar (xbar = 64, its fastest link) moves the packet
	// in 2048/64 = 32 cycles; hop 2 serializes 32 and propagates 4.
	// 2*(32+4) + 32 = 104 cycles end to end.
	if got := st.Latencies[0]; got != 104 {
		t.Errorf("latency = %d, want 104", got)
	}
	// Floor: one serialization (32) + two delays (8) = 40.
	if st.MinPossible != 40 {
		t.Errorf("MinPossible = %d, want 40", st.MinPossible)
	}
	if !res.Drained || res.TotalPkts != 1 || res.TotalBytes != 2048 {
		t.Errorf("drained=%v pkts=%d bytes=%d", res.Drained, res.TotalPkts, res.TotalBytes)
	}
}

// TestRefSimQueueing checks FIFO serialization on a shared link: two
// same-cycle packets to one destination depart back to back, so the
// second is exactly one serialization time later.
func TestRefSimQueueing(t *testing.T) {
	b := topo.NewBuilder("fanin")
	b.SetDefaultLink(64, 0)
	sw := b.AddSwitch("sw", 3)
	for i := 0; i < 3; i++ {
		e := b.AddEndpoint("")
		b.Connect(e, 0, sw, i)
	}
	rs, err := NewRefSim(b.MustBuild(), []RefFlow{
		{ID: 0, Src: 0, Dst: 2, Start: 0, End: 32, Rate: 1, Size: 2048},
		{ID: 1, Src: 1, Dst: 2, Start: 0, End: 32, Rate: 1, Size: 2048},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rs.Run(sim.Cycle(math.MaxInt64 / 2))
	// Both packets emit the same cycle and reach the switch together at
	// 32 (2048/64); both cross the crossbar in 32 more and reach the
	// shared egress at 64. Flow 0 wins it (FIFO, enqueued first) and
	// lands at 64+32 = 96; flow 1 waits one serialization behind it and
	// lands at 96+32 = 128.
	if l0, l1 := res.Flows[0].Latencies[0], res.Flows[1].Latencies[0]; l0 != 96 || l1 != 128 {
		t.Errorf("latencies = %d, %d, want 96, 128", l0, l1)
	}
}

// TestRefSimCrossbarBackToBack checks that an input port carries one
// crossbar transfer at a time, as the engine's does: a small packet
// that lands right behind a large one waits for the large one's
// transfer before its own starts.
func TestRefSimCrossbarBackToBack(t *testing.T) {
	b := topo.NewBuilder("fanout")
	b.SetDefaultLink(64, 4)
	sw := b.AddSwitch("sw", 3)
	for i := 0; i < 3; i++ {
		e := b.AddEndpoint("")
		b.Connect(e, 0, sw, i)
	}
	// Both packets emit at cycle 31, the 2048 B one first.
	rs, err := NewRefSim(b.MustBuild(), []RefFlow{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 32, Rate: 1, Size: 2048},
		{ID: 1, Src: 0, Dst: 2, Start: 31, End: 32, Rate: 1, Size: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := rs.Run(sim.Cycle(math.MaxInt64 / 2))
	// The large packet serializes 31..63 and lands at 67; its transfer
	// holds the input port until 99; it serializes again and lands at
	// 99+32+4 = 135, 104 cycles after emission. The small one follows it
	// on the wire (63..64) and lands at 68, but its one-cycle transfer
	// starts only at 99: out at 100, delivered at 100+1+4 = 105, 74
	// cycles after emission. A crossbar without the wait would deliver
	// it at 74, 43 cycles after emission.
	if l0, l1 := res.Flows[0].Latencies[0], res.Flows[1].Latencies[0]; l0 != 104 || l1 != 74 {
		t.Errorf("latencies = %d, %d, want 104, 74", l0, l1)
	}
}

// TestRefSimDETRoutes pins the reference's DET rule on the 2-ary
// 2-tree by hand. Endpoints 0 and 1 hang off leaf switch <0,0>
// (level 0: one hop from an endpoint, less one), whose ports 2 and 3
// go up to the two roots at equal cost. DET takes up port k + digit 0
// of the destination, 2 + dst%2: flow 0->3 leaves on port 3, where the
// lowest equal-cost port would be 2, and flow 1->2 leaves on port 2.
func TestRefSimDETRoutes(t *testing.T) {
	f, err := topo.KaryNTree(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := NewRefSim(f.Topology, nil)
	if err != nil {
		t.Fatal(err)
	}
	leaf := f.Devices[f.EndpointDevice(0)].Ports[0].Peer
	if f.Devices[f.EndpointDevice(1)].Ports[0].Peer != leaf {
		t.Fatal("endpoints 0 and 1 do not share a leaf switch")
	}
	for _, c := range []struct{ src, dst, port int }{{0, 3, 3}, {1, 2, 2}} {
		if got := rs.nextPort[leaf][c.dst]; got != c.port {
			t.Errorf("flow %d->%d leaves the leaf on port %d, want %d", c.src, c.dst, got, c.port)
		}
	}
}

// TestRefSimEmissionCount checks the accumulator arithmetic: a rate-r
// flow over W cycles emits floor(W*r*bpc/size) packets (within one).
func TestRefSimEmissionCount(t *testing.T) {
	const w = 10_000
	for _, rate := range []float64{1, 0.8, 0.5, 0.33, 0.05} {
		rs, err := NewRefSim(twoHop(64, 4), []RefFlow{
			{ID: 0, Src: 0, Dst: 1, Start: 0, End: w, Rate: rate, Size: 2048},
		})
		if err != nil {
			t.Fatal(err)
		}
		res := rs.Run(sim.Cycle(math.MaxInt64 / 2))
		want := int(w * rate * 64 / 2048)
		got := res.Flows[0].OfferedPkts
		if got < want-1 || got > want+1 {
			t.Errorf("rate %v: offered %d packets, want %d±1", rate, got, want)
		}
		if res.Flows[0].DeliveredPkts != got {
			t.Errorf("rate %v: delivered %d != offered %d", rate, res.Flows[0].DeliveredPkts, got)
		}
	}
}

// TestRefSimValidation covers the constructor's rejection paths.
func TestRefSimValidation(t *testing.T) {
	tp := twoHop(64, 4)
	cases := []struct {
		name string
		flow RefFlow
	}{
		{"bad src", RefFlow{ID: 0, Src: -1, Dst: 1, Start: 0, End: 10, Rate: 0.5}},
		{"bad dst", RefFlow{ID: 0, Src: 0, Dst: 9, Start: 0, End: 10, Rate: 0.5}},
		{"self send", RefFlow{ID: 0, Src: 1, Dst: 1, Start: 0, End: 10, Rate: 0.5}},
		{"zero rate", RefFlow{ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 0}},
		{"over rate", RefFlow{ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 1.5}},
		{"empty window", RefFlow{ID: 0, Src: 0, Dst: 1, Start: 10, End: 10, Rate: 0.5}},
		{"oversize", RefFlow{ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 0.5, Size: 4096}},
	}
	for _, c := range cases {
		if _, err := NewRefSim(tp, []RefFlow{c.flow}); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	dup := []RefFlow{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 0.5},
		{ID: 0, Src: 1, Dst: 0, Start: 0, End: 10, Rate: 0.5},
	}
	if _, err := NewRefSim(tp, dup); err == nil {
		t.Error("duplicate flow id accepted")
	}
}
