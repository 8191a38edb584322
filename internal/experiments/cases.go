// Package experiments encodes the paper's evaluation (Section IV):
// the four traffic cases over the three network configurations of
// Table I, a registry mapping every figure to a runnable experiment,
// and text renderers that print the series the paper plots.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// ms converts milliseconds to cycles (shorthand for case tables).
func ms(v float64) sim.Cycle { return sim.CyclesFromMS(v) }

// activeOnly drops flows whose activation window lies beyond the
// simulation end (time-scaled runs in tests and benches).
func activeOnly(flows []traffic.Flow, end sim.Cycle) []traffic.Flow {
	out := flows[:0]
	for _, f := range flows {
		if f.Start < end {
			out = append(out, f)
		}
	}
	return out
}

// Case1 is the paper's traffic Case #1 on Configuration #1: the victim
// flow F0 (0->3) runs for the whole simulation while F1, F2, F5 and F6
// pile onto end-node 4 in a staggered schedule, creating a congestion
// point on the link switchB -> node4 and a parking-lot situation at
// switch B.
func Case1(end sim.Cycle) []traffic.Flow {
	return activeOnly([]traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0},
		{ID: 1, Src: 1, Dst: 4, Start: ms(2), End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: ms(4), End: end, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: ms(6), End: end, Rate: 1.0},
		{ID: 6, Src: 6, Dst: 4, Start: ms(6), End: end, Rate: 1.0},
	}, end)
}

// Case2Hot is the hot destination of Case #2 (see DESIGN.md: the
// figure's wiring is reconstructed; five flows converge on one node of
// the 2-ary 3-tree, merging at several switches so that multiple
// congestion points and two parking-lot switches appear).
const Case2Hot = 7

// Case2 is traffic Case #2 on Configuration #2: F1 active throughout;
// F0, F4, F2, F3 join at 2, 4, 6 and 6 ms.
func Case2(end sim.Cycle) []traffic.Flow {
	return activeOnly([]traffic.Flow{
		{ID: 1, Src: 1, Dst: Case2Hot, Start: 0, End: end, Rate: 1.0},
		{ID: 0, Src: 0, Dst: Case2Hot, Start: ms(2), End: end, Rate: 1.0},
		{ID: 4, Src: 4, Dst: Case2Hot, Start: ms(4), End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: Case2Hot, Start: ms(6), End: end, Rate: 1.0},
		{ID: 3, Src: 3, Dst: Case2Hot, Start: ms(6), End: end, Rate: 1.0},
	}, end)
}

// Case3 is Case #2 plus three uniform (random-destination) flows from
// nodes 5, 6 and 7 at 100% for the whole run, adding the short-lived
// congestion events that require fast reaction.
func Case3(end sim.Cycle) []traffic.Flow {
	flows := Case2(end)
	for i, src := range []int{5, 6, 7} {
		flows = append(flows, traffic.Flow{
			ID: 10 + i, Src: src, Dst: traffic.UniformDst, Start: 0, End: end, Rate: 1.0,
		})
	}
	return flows
}

// case4HotDests are the hot destinations building the congestion
// trees. They sit on distinct leaf switches; the first four share their
// lowest digit, so under DET routing their up-phase paths collide on
// the same leaf up-links — with more trees than CFQs per port, those
// ports run out of isolation resources (the FBICM flaw Fig. 8b
// exposes), while trees five and six have different low digits ("the
// congested traffic is better balanced", Fig. 8c). None of them is a
// hot source (ids are not congruent 3 mod 4).
var case4HotDests = []int{5, 13, 21, 29, 42, 52}

// case4HotSource reports whether node s is one of the 25% hot sources:
// one per leaf switch (ids 3 mod 4), so every congestion tree's
// branches interleave with the uniform traffic of the whole fabric.
func case4HotSource(s int) bool { return s%4 == 3 }

// Case4 is traffic Case #4 on Configuration #3: 75% of the sources
// (three per leaf switch) inject uniform traffic at 100% for the whole
// run; the remaining 25% (one per leaf switch, 16 nodes) blast
// hot-spot traffic during [1ms,2ms], building `trees` simultaneous
// congestion trees (1, 4 or 6 in the paper's Fig. 8).
func Case4(end sim.Cycle, trees int) ([]traffic.Flow, error) {
	if trees < 1 || trees > len(case4HotDests) {
		return nil, fmt.Errorf("experiments: case #4 supports 1..%d trees, got %d", len(case4HotDests), trees)
	}
	var flows []traffic.Flow
	hot := 0
	for s := 0; s < 64; s++ {
		if !case4HotSource(s) {
			flows = append(flows, traffic.Flow{
				ID: s, Src: s, Dst: traffic.UniformDst, Start: 0, End: end, Rate: 1.0,
			})
			continue
		}
		flows = append(flows, traffic.Flow{
			ID: s, Src: s, Dst: case4HotDests[hot%trees],
			Start: ms(1), End: ms(2), Rate: 1.0,
		})
		hot++
	}
	return activeOnly(flows, end), nil
}

// Case4IsHotFlow reports whether flow id belongs to the hot burst
// (flow ids equal source ids in Case #4).
func Case4IsHotFlow(id int) bool { return case4HotSource(id) }

// Case5Hot is the hot destination of the Config #4 hotspot+victims
// scenario (endpoint 3, leaf switch 0 of the 8-ary 3-tree).
const Case5Hot = 3

// Case5 is the hotspot+victims scenario on Configuration #4: one
// source per odd leaf switch (32 of them) blasts endpoint Case5Hot
// during the middle three fifths of the run, while a victim flow on
// each of those same leaf switches sends steadily to an otherwise idle
// even-leaf destination — congestion-tree-vs-victim separation at
// 512-node scale. Victim flow ids are 100+leaf, hot flow ids are the
// leaf index.
func Case5(end sim.Cycle) []traffic.Flow {
	var flows []traffic.Flow
	for leaf := 1; leaf < 64; leaf += 2 {
		flows = append(flows, traffic.Flow{
			ID: leaf, Src: 8 * leaf, Dst: Case5Hot,
			Start: end / 5, End: 4 * end / 5, Rate: 1.0,
		})
		// The victim shares the hot source's leaf switch; its destination
		// leaf is even, so no victim destination is also a hot source's
		// switch — and leaf 31's victim lands on the hot destination's own
		// leaf, the most exposed victim of all.
		flows = append(flows, traffic.Flow{
			ID: 100 + leaf, Src: 8*leaf + 1, Dst: 8*((leaf+33)%64) + 2,
			Start: 0, End: end, Rate: 1.0,
		})
	}
	return activeOnly(flows, end)
}

// BuildConfig1 wires Configuration #1 with the scheme and Case #1.
func BuildConfig1(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
	n, err := network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
	if err != nil {
		return nil, err
	}
	return n, n.AddFlows(Case1(end))
}

// BuildConfig2 wires Configuration #2 with the scheme and the chosen
// case (2 or 3).
func BuildConfig2(p core.Params, seed int64, bin, end sim.Cycle, caseNo int, _ BuildOpts) (*network.Network, error) {
	f := topo.Config2()
	n, err := network.Build(f.Topology, p, network.Options{Seed: seed, BinCycles: bin})
	if err != nil {
		return nil, err
	}
	switch caseNo {
	case 2:
		return n, n.AddFlows(Case2(end))
	case 3:
		return n, n.AddFlows(Case3(end))
	default:
		return nil, fmt.Errorf("experiments: config #2 runs cases 2 or 3, got %d", caseNo)
	}
}

// BuildConfig3 wires Configuration #3 with the scheme and Case #4.
func BuildConfig3(p core.Params, seed int64, bin, end sim.Cycle, trees int, _ BuildOpts) (*network.Network, error) {
	f := topo.Config3()
	n, err := network.Build(f.Topology, p, network.Options{Seed: seed, BinCycles: bin})
	if err != nil {
		return nil, err
	}
	flows, err := Case4(end, trees)
	if err != nil {
		return nil, err
	}
	return n, n.AddFlows(flows)
}

// BuildConfig4 wires Configuration #4 (512-node 8-ary 3-tree) with the
// scheme and the hotspot+victims scenario.
func BuildConfig4(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
	f := topo.Config4()
	n, err := network.Build(f.Topology, p, network.Options{Seed: seed, BinCycles: bin})
	if err != nil {
		return nil, err
	}
	return n, n.AddFlows(Case5(end))
}

// SchemeByName resolves a scheme preset by the name AllSchemes gives it
// (case-sensitive, as printed in the paper).
func SchemeByName(name string) (core.Params, error) {
	for _, p := range AllSchemes() {
		if p.Name == name {
			return p, nil
		}
	}
	return core.Params{}, fmt.Errorf("experiments: unknown scheme %q (want one of %s)", name, strings.Join(SchemeNames(), ", "))
}

// SchemeNames lists every preset's name in presentation order: the text
// of help and error messages, so none of them keeps a list by hand.
func SchemeNames() []string {
	var names []string
	for _, p := range AllSchemes() {
		names = append(names, p.Name)
	}
	return names
}

// AllSchemes returns every preset in presentation order: the paper's
// evaluated set first, then the extra related-work baselines.
func AllSchemes() []core.Params {
	return []core.Params{
		core.Preset1Q(),
		core.PresetFBICM(),
		core.PresetITh(),
		core.PresetCCFIT(),
		core.PresetVOQnet(),
		core.PresetDBBM(),
		core.PresetVOQswOnly(),
		core.PresetOBQA(),
	}
}
