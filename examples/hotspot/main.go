// Hotspot: anatomy of a congestion tree. Runs the same hot-spot
// scenario on Configuration #1 under every scheme and prints what the
// congestion-management machinery did: detections, CFQ allocations and
// releases, Stop/Go flow-control events, FECN marks and BECNs — next
// to the victim's achieved bandwidth, so the mechanism-to-effect chain
// of the paper is visible in one table.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"

	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	fmt.Println("congestion-tree anatomy: victim 0->3 vs contributors (1,2,5,6)->4 on Config #1")
	fmt.Printf("%-8s %9s %9s %8s %8s %8s %8s %8s %8s\n",
		"scheme", "victim", "hotlink", "detect", "dealloc", "stops", "marked", "becns", "exhaust")

	var ccfitTrace *trace.Ring
	for _, name := range []string{"1Q", "DBBM", "ITh", "FBICM", "CCFIT", "VOQnet"} {
		params, err := experiments.SchemeByName(name)
		if err != nil {
			log.Fatal(err)
		}
		if name == "CCFIT" {
			// Capture the protocol milestones of the CCFIT run for the
			// excerpt printed below.
			ccfitTrace = trace.NewRing(1 << 16)
			params.Tracer = trace.Only(ccfitTrace,
				trace.EvDetect, trace.EvPropagate, trace.EvStop, trace.EvGo,
				trace.EvCongestionOn, trace.EvDealloc)
		}
		net, err := network.Build(topo.Config1(), params, network.Options{Seed: 7})
		if err != nil {
			log.Fatal(err)
		}
		end := sim.CyclesFromMS(5)
		err = net.AddFlows([]traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0},
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 5, Src: 5, Dst: 4, Start: 0, End: end, Rate: 1.0},
			{ID: 6, Src: 6, Dst: 4, Start: 0, End: end, Rate: 1.0},
		})
		if err != nil {
			log.Fatal(err)
		}
		net.RunMS(5)

		bins := len(net.Collector.TotalSeries(0))
		victim := net.Collector.MeanFlowBandwidth(0, bins/2, bins)
		hot := 0.0
		for _, f := range []int{1, 2, 5, 6} {
			hot += net.Collector.MeanFlowBandwidth(f, bins/2, bins)
		}
		ds := net.DiscStatsSum()
		marked, becns := 0, 0
		for _, sw := range net.Switches {
			marked += sw.Stats().Marked
		}
		for _, nd := range net.Nodes {
			becns += nd.Stats().BECNsReceived
		}
		fmt.Printf("%-8s %8.2fG %8.2fG %8d %8d %8d %8d %8d %8d\n",
			name, victim, hot, ds.Detections, ds.Deallocs, ds.StopsSent, marked, becns, ds.CAMExhausted)
	}

	fmt.Println()
	fmt.Println("first protocol events of the CCFIT run:")
	for i, ev := range ccfitTrace.Events() {
		if i >= 10 {
			break
		}
		fmt.Println(" ", trace.Format(ev))
	}

	fmt.Println()
	fmt.Println("reading the table:")
	fmt.Println("  1Q      - victim crushed by HoL blocking, no machinery at all")
	fmt.Println("  ITh     - victim restored by throttling alone (marks + BECNs), slow")
	fmt.Println("  FBICM   - victim restored by isolation alone (detections + stops)")
	fmt.Println("  CCFIT   - both: isolation reacts instantly, throttling frees resources")
	fmt.Println("  VOQnet  - reference: per-destination queues everywhere")
}
