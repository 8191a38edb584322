package traffic

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/endnode"
	"repro/internal/pkt"
	"repro/internal/sim"
)

// scanGenerator is the generator's former per-cycle logic, kept as the
// reference for the flow active set: every tick walks every flow, and
// sleeping is decided by two more full scans (anyActive, nextStart).
type scanGenerator struct {
	eng    *sim.Engine
	nodes  []*endnode.Node
	ids    *pkt.IDGen
	bpc    []int
	hook   InjectHook
	handle *sim.TickerHandle
	flows  []flowState
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
	g.handle = eng.AddTicker(sim.PhaseInject, sim.TickerFunc(g.inject))
	return g
}

func (g *scanGenerator) inject(now sim.Cycle) {
	for i := range g.flows {
		f := &g.flows[i]
		if f.done() || now < f.Start || now >= f.End {
			continue
		}
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
			p := pkt.NewData(g.ids, f.Src, dst, f.ID, sz, now)
			if !g.nodes[f.Src].Offer(p) {
				break
			}
			f.acc -= float64(sz)
			f.sent += int64(sz)
			g.hook(p)
			if f.done() {
				break
			}
		}
	}
	if !g.anyActive(now) {
		g.handle.Sleep()
		if next, ok := g.nextStart(now); ok {
			g.eng.At(next, g.handle.Wake)
		}
	}
}

func (g *scanGenerator) anyActive(now sim.Cycle) bool {
	for i := range g.flows {
		f := &g.flows[i]
		if !f.done() && now >= f.Start && now < f.End {
			return true
		}
	}
	return false
}

func (g *scanGenerator) nextStart(now sim.Cycle) (sim.Cycle, bool) {
	var next sim.Cycle
	found := false
	for i := range g.flows {
		if s := g.flows[i].Start; s > now && (!found || s < next) {
			next, found = s, true
		}
	}
	return next, found
}

// injection is one observed Offer: when, by which flow, and the packet.
type injection struct {
	cycle    sim.Cycle
	flow     int
	id       uint64
	dst, len int
}

// cycleState is what the generator leaves on the engine after a cycle:
// whether its ticker is awake and how many wake events are armed.
type cycleState struct {
	awake   bool
	pending int
}

// randomFlows draws n flows over `nodes` endpoints inside [0, horizon):
// overlapping windows, one-cycle windows (Start == End-1), finite flows
// small enough to finish mid-window, uniform destinations, and — when
// sparse — long gaps the generator sleeps through.
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
			f.PktSize = 64 * (1 + rng.Intn(pkt.MTU/64))
		}
		if rng.Intn(3) == 0 {
			f.Bytes = 1 + rng.Int63n(6*pkt.MTU)
		}
		flows[i] = f
	}
	return flows
}

// The flow active set must reproduce the full scan exactly: the same
// (cycle, flow, packet id, destination, size) injection sequence — which
// pins Offer order, id assignment and the uniform-destination RNG draws —
// and the same sleep/wake schedule, cycle by cycle.
func TestActiveSetEqualsFullScan(t *testing.T) {
	const nodes = 24
	for _, c := range []struct {
		name    string
		flows   int
		horizon sim.Cycle
	}{
		{"dense", 2000, 6000},
		{"sparse", 60, 60_000}, // mostly asleep between short windows
		{"bursty", 400, 3000},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			flows := randomFlows(rand.New(rand.NewSource(int64(c.flows))), c.flows, nodes, c.horizon)
			type side struct {
				eng    *sim.Engine
				awake  func() bool
				trace  []injection
				states []cycleState
			}
			build := func(reference bool) *side {
				s := &side{eng: sim.NewEngine(11)}
				ids := &pkt.IDGen{}
				p := core.Preset1Q()
				p.AdVOQCap = 3 // unwired nodes back up at once: sources stall
				ns := make([]*endnode.Node, nodes)
				bpc := make([]int, nodes)
				for i := range ns {
					ns[i] = endnode.New(s.eng, i, &p, nodes, ids, nil)
					bpc[i] = 64 << (i % 2)
				}
				hook := func(p *pkt.Packet) {
					s.trace = append(s.trace, injection{s.eng.Now(), p.Flow, p.ID, p.Dst, p.Size})
				}
				if reference {
					s.awake = newScanGenerator(s.eng, ns, bpc, flows, ids, hook).handle.Awake
				} else {
					g, err := NewGenerator(s.eng, ns, bpc, flows, ids, nil, hook)
					if err != nil {
						t.Fatal(err)
					}
					s.awake = g.handle.Awake
				}
				return s
			}
			got, want := build(false), build(true)
			slept := 0
			for cyc := sim.Cycle(0); cyc < c.horizon+2100; cyc++ {
				for _, s := range []*side{got, want} {
					s.eng.Step()
					// Unwired nodes schedule nothing, so every pending
					// event is a generator wake.
					s.states = append(s.states, cycleState{s.awake(), s.eng.Pending()})
				}
				g, w := got.states[cyc], want.states[cyc]
				if g != w {
					t.Fatalf("cycle %d: generator awake=%v with %d wakes armed, full scan awake=%v with %d",
						cyc, g.awake, g.pending, w.awake, w.pending)
				}
				if !w.awake {
					slept++
				}
			}
			if len(got.trace) != len(want.trace) {
				t.Fatalf("%d injections, full scan made %d", len(got.trace), len(want.trace))
			}
			for i := range want.trace {
				if got.trace[i] != want.trace[i] {
					t.Fatalf("injection %d: %+v, full scan %+v", i, got.trace[i], want.trace[i])
				}
			}
			if len(want.trace) < c.flows/2 || slept == 0 {
				t.Fatalf("scenario too thin: %d injections, %d sleeping cycles", len(want.trace), slept)
			}
		})
	}
}
