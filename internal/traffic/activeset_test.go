package traffic

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/endnode"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// scanGenerator is the generator's former per-cycle logic, kept as the
// reference for the deadline-driven one: every tick walks every flow and
// steps its shaper once. It asks the node for room before it builds a
// packet, as the generator does, so packet ids compare too.
type scanGenerator struct {
	eng    *sim.Engine
	nodes  []*endnode.Node
	ids    *pkt.IDGen
	bpc    []int
	hook   InjectHook
	flows  []flowState
	visits int64 // flow-cycles scanned: what Visits' two figures must add up to
}

func newScanGenerator(eng *sim.Engine, nodes []*endnode.Node, bpc []int, flows []Flow, ids *pkt.IDGen, hook InjectHook) *scanGenerator {
	g := &scanGenerator{eng: eng, nodes: nodes, ids: ids, bpc: bpc, hook: hook}
	for _, f := range flows {
		if f.PktSize == 0 {
			f.PktSize = pkt.MTU
		}
		fs := flowState{Flow: f}
		if f.Dst == UniformDst {
			fs.rng = eng.RNG()
		}
		g.flows = append(g.flows, fs)
	}
	eng.AddTicker(sim.PhaseInject, g.inject)
	return g
}

func (g *scanGenerator) inject(now sim.Cycle) {
	for i := range g.flows {
		f := &g.flows[i]
		if f.done() || now < f.Start || now >= f.End {
			continue
		}
		g.visits++
		f.acc += f.Rate * float64(g.bpc[f.Src])
		max := float64(f.PktSize) + f.Rate*float64(g.bpc[f.Src])
		if f.acc > max {
			f.acc = max
		}
		for sz := f.pktSize(); f.acc >= float64(sz); sz = f.pktSize() {
			dst := f.Dst
			if dst == UniformDst {
				dst = f.rng.Intn(len(g.nodes) - 1)
				if dst >= f.Src {
					dst++
				}
			}
			if g.nodes[f.Src].Full(dst) {
				break
			}
			p := pkt.NewData(g.ids, f.Src, dst, f.ID, sz, now)
			g.nodes[f.Src].Offer(p)
			f.acc -= float64(sz)
			f.sent += int64(sz)
			g.hook(p)
			if f.done() {
				break
			}
		}
	}
}

// scenario is one differential run: flows over wired nodes whose uplinks
// end in sinks that return credit as the drain script says — which is
// what pops AdVOQs, and so what parks and wakes sources.
type scenario struct {
	nodes   int
	horizon sim.Cycle
	flows   []Flow
	// drain holds one byte per (epoch of drainEpoch cycles, node), used
	// round robin: how that node's sink returns credit in that epoch.
	drain []byte
}

const drainEpoch = 128

// drainSink ends one node's uplink. It keeps what it received as owed
// credit and hands it back on the script's schedule.
type drainSink struct {
	n    *endnode.Node
	owed int
}

func (d *drainSink) ReceivePacket(p *pkt.Packet, _ int) { d.owed += p.Size }
func (d *drainSink) ReceiveControl(link.Control)        {}

// release returns credit for cycle now: mode 0 freezes, 1 trickles one
// MTU every few cycles, 2 returns everything at the epoch's first cycle
// (a burst), 3 returns everything at once (a free-running sink).
func (d *drainSink) release(now sim.Cycle, b byte) {
	give := 0
	switch b % 4 {
	case 1:
		if now%sim.Cycle(1+b>>2%16) == 0 {
			give = min(d.owed, pkt.MTU)
		}
	case 2:
		if now%drainEpoch == 0 {
			give = d.owed
		}
	case 3:
		give = d.owed
	}
	if give > 0 {
		d.owed -= give
		d.n.RefundCredit(0, give)
	}
}

// injection is one observed Offer: when, by which flow, and the packet.
type injection struct {
	cycle    sim.Cycle
	flow     int
	id       uint64
	dst, len int
}

// side is one of the two runs of a scenario.
type side struct {
	eng   *sim.Engine
	nodes []*endnode.Node
	gen   *Generator     // nil on the reference side
	scan  *scanGenerator // nil on the generator's side
	trace []injection
	awake bool // the generator's ticker, entering this cycle's injection phase
}

func buildSide(t testing.TB, sc scenario, reference bool) *side {
	s := &side{eng: sim.NewEngine(11), nodes: make([]*endnode.Node, sc.nodes)}
	ids := &pkt.IDGen{}
	p := core.Preset1Q()
	p.AdVOQCap = 3
	bpc := make([]int, sc.nodes)
	sinks := make([]*drainSink, sc.nodes)
	for i := range s.nodes {
		bpc[i] = 64 << (i % 2)
		s.nodes[i] = endnode.New(s.eng, i, &p, sc.nodes, ids, nil)
		sinks[i] = &drainSink{n: s.nodes[i]}
		tx := link.NewHalf(s.eng, fmt.Sprintf("up%d", i), bpc[i], 2)
		tx.SetReceivers(sinks[i], sinks[i])
		s.nodes[i].AttachLink(tx, core.NewSharedCredits(2*pkt.MTU))
	}
	// Registered before the generator: it sees the ticker as the events of
	// this cycle left it, and both sides drain at the same point.
	s.eng.AddTicker(sim.PhaseInject, func(now sim.Cycle) {
		if s.gen != nil {
			s.awake = s.gen.handle.Awake()
		}
		for i, d := range sinks {
			d.release(now, sc.drain[(int(now/drainEpoch)*sc.nodes+i)%len(sc.drain)])
		}
	})
	hook := func(p *pkt.Packet) {
		s.trace = append(s.trace, injection{s.eng.Now(), p.Flow, p.ID, p.Dst, p.Size})
	}
	if reference {
		s.scan = newScanGenerator(s.eng, s.nodes, bpc, sc.flows, ids, hook)
		return s
	}
	g, err := NewGenerator(s.eng, s.nodes, bpc, sc.flows, ids, nil, hook)
	if err != nil {
		t.Fatal(err)
	}
	s.gen = g
	return s
}

// coverage is what a run of the generator's side went through.
type coverage struct {
	injections, asleep, parked, hot, shared, endParked int
}

// runPair steps the generator and the full scan through sc in lockstep
// and requires, cycle by cycle: the same (cycle, flow, packet id,
// destination, size) injections — which pins Offer order, id assignment
// and the uniform-destination draws; the same Offered at every node, and
// a refusal at the same nodes (Rejected == 0, the oracle's predicate: a
// parked source counts its refusal once, the scan once a cycle); and a
// generator that is only asleep in cycles in which the scan injects
// nothing and no window opens.
func runPair(t testing.TB, sc scenario) (cov coverage) {
	got, want := buildSide(t, sc, false), buildSide(t, sc, true)
	opens := map[sim.Cycle]bool{}
	for _, f := range sc.flows {
		opens[f.Start] = true
	}
	wasParked := make([]bool, len(sc.flows))
	for cyc := sim.Cycle(0); cyc < sc.horizon; cyc++ {
		seen := len(want.trace)
		got.eng.Step()
		want.eng.Step()
		if len(got.trace) != len(want.trace) {
			t.Fatalf("cycle %d: %d injections so far, full scan made %d", cyc, len(got.trace), len(want.trace))
		}
		for i := seen; i < len(want.trace); i++ {
			if got.trace[i] != want.trace[i] {
				t.Fatalf("injection %d: %+v, full scan %+v", i, got.trace[i], want.trace[i])
			}
		}
		for i := range want.nodes {
			g, w := got.nodes[i].Stats(), want.nodes[i].Stats()
			if g.Offered != w.Offered || (g.Rejected == 0) != (w.Rejected == 0) {
				t.Fatalf("cycle %d node %d: offered %d rejected %d, full scan %d and %d\n%s",
					cyc, i, g.Offered, g.Rejected, w.Offered, w.Rejected, got.gen.DescribeState(cyc))
			}
		}
		if !got.awake {
			cov.asleep++
			if len(want.trace) != seen || opens[cyc] {
				t.Fatalf("cycle %d: generator asleep, full scan injected %d and a window opening is %v",
					cyc, len(want.trace)-seen, opens[cyc])
			}
		}
		var onAdVOQ map[[2]int]int
		for i := range got.gen.flows {
			f := &got.gen.flows[i]
			// The accumulator is the scan's, bit for bit, whenever it is
			// current: after every visit that ran the shaper.
			if w := &want.scan.flows[i]; f.last == cyc && (f.phase != retired || f.done()) && f.acc != w.acc {
				t.Fatalf("cycle %d flow %d: accumulator %v, full scan %v", cyc, f.ID, f.acc, w.acc)
			}
			if wasParked[i] && f.phase == retired {
				cov.endParked++
			}
			if wasParked[i] = f.phase == parked; wasParked[i] {
				cov.parked++
				if onAdVOQ == nil {
					onAdVOQ = map[[2]int]int{}
				}
				if onAdVOQ[[2]int{f.Src, f.Dst}]++; onAdVOQ[[2]int{f.Src, f.Dst}] == 2 {
					cov.shared++
				}
			} else if f.phase == hot {
				cov.hot++
			}
		}
	}
	visits, skipped := got.gen.Visits()
	if visits+skipped != want.scan.visits {
		t.Fatalf("%d visits + %d flow-cycles skipped, the full scan made %d visits", visits, skipped, want.scan.visits)
	}
	cov.injections = len(want.trace)
	return cov
}

// randomFlows draws n flows over `nodes` endpoints inside [0, horizon):
// fractional rates (inexact floats: the replay must step, not multiply)
// and a few integral ones (which may multiply),
// overlapping windows, one-cycle windows (Start == End-1), finite flows
// whose last packet is short, uniform destinations, and — when sparse —
// long gaps the generator sleeps through.
func randomFlows(rng *rand.Rand, n, nodes int, horizon sim.Cycle) []Flow {
	flows := make([]Flow, n)
	for i := range flows {
		f := Flow{ID: i, Src: rng.Intn(nodes), Rate: 0.05 + 0.95*rng.Float64()}
		f.Dst = rng.Intn(nodes - 1)
		if f.Dst >= f.Src {
			f.Dst++
		}
		if rng.Intn(8) == 0 {
			f.Dst = UniformDst
		}
		if rng.Intn(5) == 0 {
			f.Rate = []float64{1, 0.5, 0.25}[rng.Intn(3)] // integral bytes per cycle: the shaper may jump
		}
		f.Start = sim.Cycle(rng.Int63n(int64(horizon)))
		switch rng.Intn(4) {
		case 0:
			f.End = f.Start + 1
		case 1:
			f.End = f.Start + 1 + sim.Cycle(rng.Intn(64))
		default:
			f.End = f.Start + 1 + sim.Cycle(rng.Intn(2000))
		}
		if rng.Intn(2) == 0 {
			f.PktSize = 1 + rng.Intn(pkt.MTU)
		}
		if rng.Intn(3) == 0 {
			f.Bytes = 1 + rng.Int63n(6*pkt.MTU)
		}
		flows[i] = f
	}
	return flows
}

// randomDrain draws a script of n epoch bytes in runs, so that trickles,
// bursts and free-running stretches alternate with freezes long enough
// for windows to close on parked flows.
func randomDrain(rng *rand.Rand, n int) []byte {
	script := make([]byte, 0, n)
	for len(script) < n {
		b := byte(rng.Intn(256))
		for run := 1 + rng.Intn(24); run > 0; run-- {
			script = append(script, b)
		}
	}
	return script
}

func TestActiveSetEqualsFullScan(t *testing.T) {
	const nodes = 8
	for _, c := range []struct {
		name    string
		flows   int
		horizon sim.Cycle
	}{
		{"dense", 300, 6000},
		{"sparse", 30, 40_000}, // mostly asleep between short windows
		{"bursty", 120, 3000},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.flows)))
			sc := scenario{nodes: nodes, horizon: c.horizon + 2100, flows: randomFlows(rng, c.flows, nodes, c.horizon)}
			// Ten flows share the AdVOQ 0 -> 1, staggered, at rates that
			// keep it full: one pop wakes them all and one gets the slot.
			for i := 0; i < 10; i++ {
				sc.flows = append(sc.flows, Flow{ID: 9000 + i, Src: 0, Dst: 1, Rate: 0.3 + 0.07*float64(i),
					Start: sim.Cycle(50 * i), End: c.horizon/2 + sim.Cycle(300*i), PktSize: 256 + 100*i})
			}
			// A long uniform flow stalls, redrawing, through every freeze.
			sc.flows = append(sc.flows, Flow{ID: 9100, Src: 2, Dst: UniformDst, Rate: 0.9, Start: 10, End: c.horizon})
			sc.drain = randomDrain(rng, int(sc.horizon)/drainEpoch*nodes)
			cov := runPair(t, sc)
			if cov.injections < c.flows || cov.asleep == 0 || cov.parked == 0 || cov.hot == 0 || cov.shared == 0 || cov.endParked == 0 {
				t.Fatalf("scenario too thin: %+v", cov)
			}
		})
	}
}

// decodeScenario makes any byte string a scenario: a header, eight bytes
// a flow, and what is left is the drain script.
func decodeScenario(data []byte) scenario {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	sc := scenario{nodes: 2 + at(0)%6, horizon: 4200}
	n := 1 + at(1)%24
	for i := 0; i < n; i++ {
		o := 2 + 8*i
		f := Flow{ID: i, Src: at(o) % sc.nodes, Dst: at(o+1) % sc.nodes}
		if f.Dst == f.Src {
			f.Dst = UniformDst
		}
		f.Start = sim.Cycle(at(o+2) | at(o+3)&7<<8)
		f.End = f.Start + 1 + sim.Cycle(at(o+4)|at(o+5)&7<<8)
		if f.Rate = float64(1+at(o+6)) / 257; at(o+6) >= 250 { // inexact on purpose
			f.Rate = 1
		}
		f.PktSize = 1 + (8*at(o+7)+at(o+5)>>3)%pkt.MTU
		if at(o+3)&8 != 0 {
			f.Bytes = int64(1 + 37*at(o+4) + at(o+3)>>4*pkt.MTU)
		}
		sc.flows = append(sc.flows, f)
	}
	if sc.drain = append(sc.drain, data[min(len(data), 2+8*n):]...); len(sc.drain) == 0 {
		sc.drain = []byte{3}
	}
	return sc
}

// FuzzSourceSchedule runs the differential pair over fuzzed flows and
// drain scripts (seed corpus: testdata/fuzz/FuzzSourceSchedule).
func FuzzSourceSchedule(f *testing.F) {
	f.Add([]byte{5, 3, 0, 1, 0, 0, 200, 1, 255, 255, 0, 1, 10, 0, 200, 2, 200, 30, 1, 1, 0, 0, 255, 7, 120, 200, 0, 0, 2, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		runPair(t, decodeScenario(data))
	})
}

// A source nobody wakes must be readable: on nodes whose uplinks go
// nowhere the AdVOQs fill and stay full, and the generator's and the
// node's descriptions name who waits since when.
func TestSourceDescribeStateNamesParkedFlows(t *testing.T) {
	sc := scenario{nodes: 3, drain: []byte{0}, flows: []Flow{
		{ID: 7, Src: 0, Dst: 1, Start: 0, End: 5000, Rate: 1},
		{ID: 8, Src: 0, Dst: 1, Start: 40, End: 5000, Rate: 0.5},
		{ID: 9, Src: 2, Dst: UniformDst, Start: 0, End: 5000, Rate: 1},
	}}
	s := buildSide(t, sc, false)
	s.eng.Run(1000)
	got := s.gen.DescribeState(s.eng.Now())
	for _, want := range []string{"sources: live=3 due=0 parked=2 hot=1", "next=never", "awake=true", " flow7(0->1)@", " flow8(0->1)@"} {
		if !strings.Contains(got, want) {
			t.Errorf("generator state %q does not contain %q", got, want)
		}
	}
	if n := s.nodes[0]; n.ParkedSources() != 2 || !strings.Contains(n.DescribeState(s.eng.Now()), "[asleep until an event] [2 sources parked]") {
		t.Errorf("node 0: %d sources parked, state %q", n.ParkedSources(), n.DescribeState(s.eng.Now()))
	}
}
