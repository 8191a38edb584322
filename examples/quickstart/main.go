// Quickstart: build the paper's Configuration #1, run a 3:1 hot spot
// plus a victim flow under CCFIT for two simulated milliseconds, and
// print the victim's bandwidth over time.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	// The paper's CCFIT preset: 2 CFQs per port, FECN/BECN throttling.
	params := core.PresetCCFIT()

	net, err := network.Build(topo.Config1(), params, network.Options{Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	end := sim.CyclesFromMS(2)
	err = net.AddFlows([]traffic.Flow{
		// The victim: node 0 -> node 3 at 100% of its 2.5 GB/s link.
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0},
		// Three contributors piling onto node 4 (the hot spot).
		{ID: 1, Src: 1, Dst: 4, Start: sim.CyclesFromMS(0.5), End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: sim.CyclesFromMS(0.5), End: end, Rate: 1.0},
		{ID: 3, Src: 5, Dst: 4, Start: sim.CyclesFromMS(0.5), End: end, Rate: 1.0},
	})
	if err != nil {
		log.Fatal(err)
	}

	net.RunMS(2)

	fmt.Println("victim flow bandwidth (GB/s) per 50 us bin:")
	series := net.Collector.FlowSeries(0, 0)
	for i, v := range series {
		fmt.Printf("  t=%5.2f ms  %5.2f  %s\n",
			float64(i)*net.Collector.BinMS(), v, bar(v, 2.5))
	}
	fmt.Printf("\ndelivered %d packets, mean latency %.0f ns\n",
		net.Collector.DeliveredPkts, net.Collector.AvgLatencyNS())
	fmt.Println("note: the victim holds ~2.5 GB/s through the hot spot —")
	fmt.Println("congested packets are isolated in CFQs and throttled at the sources.")
}

// bar renders a quick ASCII gauge.
func bar(v, max float64) string {
	n := int(v / max * 40)
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
