// Package ccfit is a cycle-level reproduction of "Combining
// Congested-Flow Isolation and Injection Throttling in HPC
// Interconnection Networks" (Escudero-Sahuquillo et al., ICPP 2011).
//
// The root package holds no code: the library lives under internal/,
// and the examples, the tools under cmd/ and the tests here all import
// the same packages. It provides:
//
//   - a deterministic cycle-level simulator of lossless, credit-based
//     input-queued interconnection networks (virtual cut-through
//     switching, iSLIP crossbar scheduling, table-based deterministic
//     routing, k-ary n-tree and ad-hoc topologies): internal/network
//     over internal/topo, internal/sim and internal/traffic;
//   - the paper's congestion-management schemes as internal/core
//     presets: 1Q, FBICM (congested-flow isolation), ITh
//     (InfiniBand-style injection throttling over VOQsw), CCFIT (the
//     paper's contribution: isolation + throttling), VOQnet (the
//     near-ideal reference), and the related-work queue organisations as
//     extra baselines (experiments.AllSchemes lists every preset);
//   - the paper's complete evaluation as a registry of runnable
//     experiments (Table I, Figs. 7-10), with text and CSV renderers:
//     internal/experiments.
//
// # Quick start
//
//	net, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{Seed: 1})
//	if err != nil { ... }
//	err = net.AddFlows([]traffic.Flow{
//		{ID: 0, Src: 0, Dst: 3, Start: 0, End: sim.CyclesFromMS(10), Rate: 1.0},
//	})
//	net.RunMS(10)
//	fmt.Println(net.Collector.TotalSeries(0))
//
// Or reproduce a figure directly:
//
//	exp, _ := experiments.ByID("fig8b")
//	results, _ := experiments.RunAll(exp, 1)
//	experiments.RenderThroughput(os.Stdout, exp, results)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package ccfit
