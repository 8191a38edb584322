// Fattree: build a custom k-ary n-tree (not one of the paper's three
// configurations), drive it with uniform background traffic plus a
// sudden multi-tree hot-spot burst, and watch the network throughput
// dip and recover under FBICM versus CCFIT — the paper's scalability
// argument (Fig. 8) on a user-defined network.
//
//	go run ./examples/fattree
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

const (
	k = 2 // switch arity
	n = 4 // tree levels -> k^n = 16 endpoints, 32 switches
)

func main() {
	fmt.Printf("%d-ary %d-tree: %d endpoints; uniform load + 3-tree burst in [0.5,1.0] ms\n\n", k, n, 1<<n)

	for _, name := range []string{"FBICM", "CCFIT"} {
		params, err := experiments.SchemeByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tree, err := topo.KaryNTree(k, n, 64, 4)
		if err != nil {
			log.Fatal(err)
		}
		net, err := network.Build(tree.Topology, params, network.Options{Seed: 5, TieBreak: tree.DETTieBreak})
		if err != nil {
			log.Fatal(err)
		}

		end := sim.CyclesFromMS(2)
		var flows []traffic.Flow
		numEP := tree.NumEndpoints()
		// Three of every four nodes send uniform traffic all along.
		for s := 0; s < numEP; s++ {
			if s%4 != 3 {
				flows = append(flows, traffic.Flow{
					ID: s, Src: s, Dst: traffic.UniformDst, Start: 0, End: end, Rate: 1.0,
				})
			}
		}
		// The rest blast three hot destinations during [0.5, 1.0] ms.
		hotDests := []int{1, 5, 9}
		hot := 0
		for s := 0; s < numEP; s++ {
			if s%4 == 3 {
				flows = append(flows, traffic.Flow{
					ID: s, Src: s, Dst: hotDests[hot%len(hotDests)],
					Start: sim.CyclesFromMS(0.5), End: sim.CyclesFromMS(1.0), Rate: 1.0,
				})
				hot++
			}
		}
		if err := net.AddFlows(flows); err != nil {
			log.Fatal(err)
		}
		net.RunMS(2)

		fmt.Printf("-- %s --\n", name)
		series := net.Collector.NormalizedSeries(int(end / net.Collector.BinCycles()))
		for i, v := range series {
			marker := " "
			t := float64(i) * net.Collector.BinMS()
			if t >= 0.5 && t < 1.0 {
				marker = "*" // burst window
			}
			fmt.Printf("  t=%4.2f ms %s %5.3f %s\n", t, marker, v, gauge(v))
		}
		ds := net.DiscStatsSum()
		fmt.Printf("  CFQ detections=%d lazy allocs=%d exhaustions=%d deallocs=%d\n\n",
			ds.Detections, ds.LazyAllocs, ds.CAMExhausted, ds.Deallocs)
	}
	fmt.Println("* = hot-spot burst active. CCFIT's throttling keeps more CFQs free")
	fmt.Println("(fewer exhaustions) and recovers faster after the burst.")
}

func gauge(v float64) string {
	bars := int(v * 50)
	out := make([]byte, bars)
	for i := range out {
		out[i] = '='
	}
	return string(out)
}
