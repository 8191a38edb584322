// Fairness: the parking-lot problem (Section IV-C). Four contributors
// share the link into node 4, but two of them (F1, F2) arrive through
// a shared upstream queue while two (F5, F6) are sole users of theirs.
// Round-robin arbitration then hands F5/F6 twice the bandwidth —
// unless per-flow injection throttling equalises the shares. The
// example prints each contributor's share and Jain's fairness index
// under every scheme, reproducing the story of Figs. 9 and 10.
//
//	go run ./examples/fairness
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

func main() {
	fmt.Println("parking-lot fairness on Config #1: F1,F2 share a queue; F5,F6 are sole users")
	fmt.Printf("%-8s %7s %7s %7s %7s %9s %8s\n", "scheme", "F1", "F2", "F5", "F6", "hot total", "Jain")

	for _, name := range []string{"1Q", "FBICM", "ITh", "CCFIT"} {
		params, err := experiments.SchemeByName(name)
		if err != nil {
			log.Fatal(err)
		}
		net, err := network.Build(topo.Config1(), params, network.Options{Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		end := sim.CyclesFromMS(8)
		err = net.AddFlows([]traffic.Flow{
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 5, Src: 5, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 6, Src: 6, Dst: 4, Start: 0, End: end, Rate: 1.0},
		})
		if err != nil {
			log.Fatal(err)
		}
		net.RunMS(8)

		bins := len(net.Collector.TotalSeries(0))
		var shares []float64
		total := 0.0
		for _, f := range []int{1, 2, 5, 6} {
			v := net.Collector.MeanFlowBandwidth(f, bins/2, bins)
			shares = append(shares, v)
			total += v
		}
		fmt.Printf("%-8s %6.2fG %6.2fG %6.2fG %6.2fG %8.2fG %8.3f\n",
			name, shares[0], shares[1], shares[2], shares[3], total, metrics.JainIndex(shares))
	}

	fmt.Println()
	fmt.Println("expected: 1Q and FBICM give F5/F6 about double (parking lot, Jain ~0.9);")
	fmt.Println("ITh and CCFIT equalise all four near 0.625 GB/s (Jain ~1.0) by throttling")
	fmt.Println("per flow — FBICM alone cannot, because it never touches the sources.")
}
