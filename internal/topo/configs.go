package topo

import "repro/internal/sim"

// Port-role constants for Config1 (Fig. 5 of the paper, reconstructed
// from the prose — see DESIGN.md "substitutions").
//
//	Switch A (left): ports 0,1,2 -> endpoints 0,1,2; port 3 -> switch B
//	Switch B (right): ports 0..3 -> endpoints 3,4,5,6; port 4 -> switch A
//
// Endpoint links run at 2.5 GB/s (64 B/cycle); the inter-switch link at
// 5 GB/s (128 B/cycle), so that the victim flow F0 (0->3) can keep full
// bandwidth once the contributors to the hot spot at endpoint 4 are
// throttled — the parking-lot scenario of Section IV-C.
const (
	Config1SwitchA = 7 // device id of the left switch
	Config1SwitchB = 8 // device id of the right switch
)

// Config1 builds the paper's Configuration #1: 7 endpoints, 2 switches.
func Config1() *Topology {
	b := NewBuilder("config#1 (ad-hoc, 7 nodes, 2 switches)") // 2.5 GB/s links
	for i := 0; i < 7; i++ {
		b.AddEndpoint("node" + string(rune('0'+i)))
	}
	swA := b.AddSwitch("swA", 4)
	swB := b.AddSwitch("swB", 5)
	b.Connect(0, 0, swA, 0)
	b.Connect(1, 0, swA, 1)
	b.Connect(2, 0, swA, 2)
	b.Connect(3, 0, swB, 0)
	b.Connect(4, 0, swB, 1)
	b.Connect(5, 0, swB, 2)
	b.Connect(6, 0, swB, 3)
	// Inter-switch link: 5 GB/s = 2 flits/cycle.
	b.ConnectLink(swA, 3, swB, 4, 2*sim.FlitBytes, DefaultLinkDelay)
	return b.MustBuild()
}

// Config2 builds the paper's Configuration #2: a 2-ary 3-tree with
// 8 endpoints and 12 switches, all links 2.5 GB/s.
func Config2() *FatTree {
	f, err := KaryNTree(2, 3)
	if err != nil {
		panic(err)
	}
	f.Name = "config#2 (2-ary 3-tree)"
	return f
}

// Config3 builds the paper's Configuration #3: a 4-ary 3-tree with
// 64 endpoints and 48 switches, all links 2.5 GB/s.
func Config3() *FatTree {
	f, err := KaryNTree(4, 3)
	if err != nil {
		panic(err)
	}
	f.Name = "config#3 (4-ary 3-tree)"
	return f
}

// Config4 builds the scale configuration beyond the paper's Table I: an
// 8-ary 3-tree with 512 endpoints and 192 switches (16 ports each), all
// links 2.5 GB/s: the largest fabric the benchmarks run on.
func Config4() *FatTree {
	f, err := KaryNTree(8, 3)
	if err != nil {
		panic(err)
	}
	f.Name = "config#4 (8-ary 3-tree)"
	return f
}
