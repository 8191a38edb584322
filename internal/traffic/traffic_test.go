package traffic

import (
	"testing"

	"repro/internal/core"
	"repro/internal/endnode"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// rig builds n nodes (not wired to links; Offer works standalone) and
// a generator over the given flows.
func rig(t *testing.T, nodes int, flows []Flow) (*sim.Engine, []*endnode.Node, *Generator, *[]*pkt.Packet) {
	t.Helper()
	eng := sim.NewEngine(5)
	ids := &pkt.IDGen{}
	p := core.Preset1Q()
	p.AdVOQCap = 1 << 20 // effectively unbounded for rate tests
	ns := make([]*endnode.Node, nodes)
	for i := range ns {
		ns[i] = endnode.New(eng, i, &p, nodes, ids, nil)
	}
	bpc := make([]int, nodes)
	for i := range bpc {
		bpc[i] = 64
	}
	var injected []*pkt.Packet
	g, err := NewGenerator(eng, ns, bpc, flows, ids, nil, func(p *pkt.Packet) {
		injected = append(injected, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, ns, g, &injected
}

func TestCBRRate(t *testing.T) {
	// 100% of 64 B/cyc = one MTU per 32 cycles.
	eng, _, _, inj := rig(t, 4, []Flow{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3200, Rate: 1.0},
	})
	eng.Run(3200)
	if got := len(*inj); got != 100 {
		t.Fatalf("injected %d packets in 3200 cycles at 100%%, want 100", got)
	}
	for _, p := range *inj {
		if p.Src != 0 || p.Dst != 1 || p.Flow != 0 || p.Size != pkt.MTU {
			t.Fatalf("bad packet %+v", p)
		}
	}
}

func TestHalfRate(t *testing.T) {
	eng, _, _, inj := rig(t, 4, []Flow{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 6400, Rate: 0.5},
	})
	eng.Run(6400)
	if got := len(*inj); got != 100 {
		t.Fatalf("injected %d, want 100 at 50%%", got)
	}
}

func TestActivationWindow(t *testing.T) {
	eng, _, _, inj := rig(t, 4, []Flow{
		{ID: 0, Src: 0, Dst: 1, Start: 1000, End: 2000, Rate: 1.0},
	})
	eng.Run(5000)
	for _, p := range *inj {
		if p.Injected < 1000 || p.Injected >= 2000+32 {
			t.Fatalf("packet injected at %d outside window", p.Injected)
		}
	}
	// ~1000/32 packets.
	if got := len(*inj); got < 29 || got > 32 {
		t.Fatalf("injected %d in a 1000-cycle window, want ~31", got)
	}
}

func TestSmallPackets(t *testing.T) {
	eng, _, _, inj := rig(t, 4, []Flow{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 320, Rate: 1.0, PktSize: 64},
	})
	eng.Run(320)
	if got := len(*inj); got != 320 {
		t.Fatalf("injected %d 64-byte packets in 320 cycles, want 320", got)
	}
}

func TestUniformDestinations(t *testing.T) {
	eng, _, _, inj := rig(t, 8, []Flow{
		{ID: 0, Src: 3, Dst: UniformDst, Start: 0, End: 32 * 400, Rate: 1.0},
	})
	eng.Run(32 * 400)
	seen := map[int]int{}
	for _, p := range *inj {
		if p.Dst == 3 {
			t.Fatal("uniform flow sent to itself")
		}
		seen[p.Dst]++
	}
	if len(seen) != 7 {
		t.Fatalf("uniform flow hit %d destinations, want 7", len(seen))
	}
	for d, c := range seen {
		if c < 20 {
			t.Fatalf("dest %d only %d packets of ~57", d, c)
		}
	}
}

func TestSourceStallDoesNotBankDebt(t *testing.T) {
	// A full AdVOQ stalls the source; when it reopens, the generator
	// must not dump a huge burst.
	eng := sim.NewEngine(5)
	ids := &pkt.IDGen{}
	p := core.Preset1Q()
	p.AdVOQCap = 4
	nodes := []*endnode.Node{
		endnode.New(eng, 0, &p, 2, ids, nil),
		endnode.New(eng, 1, &p, 2, ids, nil),
	}
	var injected []*pkt.Packet
	_, err := NewGenerator(eng, nodes, []int{64, 64}, []Flow{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 100000, Rate: 1.0},
	}, ids, nil, func(q *pkt.Packet) { injected = append(injected, q) })
	if err != nil {
		t.Fatal(err)
	}
	// Nodes are unattached: the IA can stage ~2 packets + 4 in AdVOQ,
	// then everything stalls.
	eng.Run(10000)
	stalled := len(injected)
	if stalled > 10 {
		t.Fatalf("generator injected %d packets into a dead node", stalled)
	}
	if nodes[0].Stats().Rejected == 0 {
		t.Fatal("no source stall recorded")
	}
}

func TestValidation(t *testing.T) {
	cases := map[string]Flow{
		"bad src":      {ID: 0, Src: 9, Dst: 1, Start: 0, End: 10, Rate: 1},
		"bad dst":      {ID: 0, Src: 0, Dst: 9, Start: 0, End: 10, Rate: 1},
		"self":         {ID: 0, Src: 1, Dst: 1, Start: 0, End: 10, Rate: 1},
		"zero rate":    {ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 0},
		"over rate":    {ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 1.5},
		"empty window": {ID: 0, Src: 0, Dst: 1, Start: 10, End: 10, Rate: 1},
		"big packet":   {ID: 0, Src: 0, Dst: 1, Start: 0, End: 10, Rate: 1, PktSize: pkt.MTU + 1},
	}
	eng := sim.NewEngine(1)
	ids := &pkt.IDGen{}
	p := core.Preset1Q()
	nodes := []*endnode.Node{
		endnode.New(eng, 0, &p, 4, ids, nil), endnode.New(eng, 1, &p, 4, ids, nil),
		endnode.New(eng, 2, &p, 4, ids, nil), endnode.New(eng, 3, &p, 4, ids, nil),
	}
	bpc := []int{64, 64, 64, 64}
	for name, f := range cases {
		if _, err := NewGenerator(sim.NewEngine(1), nodes, bpc, []Flow{f}, ids, nil, nil); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	_ = eng
	if _, err := NewGenerator(sim.NewEngine(1), nodes, []int{64}, nil, ids, nil, nil); err == nil {
		t.Fatal("mismatched bpc accepted")
	}
}

// An unobstructed source is visited once per packet, in the cycle its
// shaper covers one, plus the visit that opens its window — also at a
// fractional rate, where the shaper is stepped, not jumped.
func TestSourceVisitsOncePerPacket(t *testing.T) {
	for _, rate := range []float64{1, 0.3} {
		eng, _, g, inj := rig(t, 4, []Flow{{ID: 0, Src: 0, Dst: 1, Start: 5, End: 6400, Rate: rate}})
		eng.Run(6400)
		visits, skipped := g.Visits()
		if len(*inj) < 50 || visits != int64(len(*inj))+1 || visits+skipped != 6400-5 {
			t.Fatalf("rate %v: %d packets in %d visits, %d flow-cycles skipped", rate, len(*inj), visits, skipped)
		}
	}
}
