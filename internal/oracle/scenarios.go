package oracle

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// PaperSchemes names the five schemes of the paper's evaluation —
// the set every differential scenario runs under.
var PaperSchemes = []string{"1Q", "FBICM", "ITh", "CCFIT", "VOQnet"}

// Scenarios returns the stock differential scenarios: three small
// topologies of increasing routing complexity, each loaded so that no
// source and no destination exceeds ~85% of its link bandwidth — the
// non-saturating regime where the engine must match the reference
// packet-for-packet. Packet sizes deliberately vary (including sizes
// that do not divide the link bandwidth) to exercise serialization
// rounding on both sides.
func Scenarios() []DiffScenario {
	ms1 := sim.CyclesFromMS(0.1)
	return []DiffScenario{
		{
			// A single crossbar: the minimal case — no multi-hop
			// routing, pure injection/arbitration/sink behaviour.
			Name: "star4",
			Build: func() *topo.Topology {
				b := topo.NewBuilder("star4")
				sw := b.AddSwitch("sw", 4)
				for i := 0; i < 4; i++ {
					e := b.AddEndpoint("")
					b.Connect(sw, i, e, 0)
				}
				return b.MustBuild()
			},
			Flows: []RefFlow{
				{ID: 0, Src: 0, Dst: 1, Start: 0, End: ms1, Rate: 0.80, Size: 2048},
				{ID: 1, Src: 1, Dst: 2, Start: 0, End: ms1, Rate: 0.75, Size: 1024},
				{ID: 2, Src: 2, Dst: 3, Start: 0, End: ms1, Rate: 0.60, Size: 1500},
				{ID: 3, Src: 3, Dst: 0, Start: 0, End: ms1, Rate: 0.50, Size: 512},
				{ID: 4, Src: 0, Dst: 2, Start: ms1 / 4, End: ms1, Rate: 0.10, Size: 700},
			},
		},
		{
			// The paper's Configuration #1: two switches, mixed
			// 2.5/5 GB/s links, staggered activation windows crossing
			// the inter-switch trunk in both directions.
			Name: "config1",
			Build: func() *topo.Topology {
				return topo.Config1()
			},
			Flows: []RefFlow{
				{ID: 0, Src: 0, Dst: 3, Start: 0, End: ms1, Rate: 0.40, Size: 2048},
				{ID: 1, Src: 1, Dst: 4, Start: 0, End: ms1, Rate: 0.35, Size: 1024},
				{ID: 2, Src: 5, Dst: 2, Start: ms1 / 8, End: ms1, Rate: 0.40, Size: 2048},
				{ID: 3, Src: 6, Dst: 0, Start: 0, End: ms1 / 2, Rate: 0.30, Size: 896},
				{ID: 4, Src: 2, Dst: 1, Start: 0, End: ms1, Rate: 0.45, Size: 1280},
			},
		},
		{
			// A 2-ary 2-tree: multi-stage fat-tree routing with the
			// topology's DET routes on one side and the reference's
			// own DET rule on the other.
			Name: "tree22",
			Build: func() *topo.Topology {
				f, err := topo.KaryNTree(2, 2)
				if err != nil {
					panic(err) // fixed parameters, cannot fail
				}
				return f.Topology
			},
			Flows: []RefFlow{
				{ID: 0, Src: 0, Dst: 3, Start: 0, End: ms1, Rate: 0.70, Size: 2048},
				{ID: 1, Src: 1, Dst: 2, Start: 0, End: ms1, Rate: 0.65, Size: 2048},
				{ID: 2, Src: 2, Dst: 1, Start: 0, End: ms1, Rate: 0.60, Size: 768},
				{ID: 3, Src: 3, Dst: 0, Start: ms1 / 3, End: ms1, Rate: 0.55, Size: 1024},
			},
		},
	}
}
