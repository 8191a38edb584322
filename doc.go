// Package ccfit is a cycle-level reproduction of "Combining
// Congested-Flow Isolation and Injection Throttling in HPC
// Interconnection Networks" (Escudero-Sahuquillo et al., ICPP 2011).
//
// The root package holds no code: the library lives under internal/,
// and the tools under cmd/ and the examples and tests here all import
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
// Example_quickstart (example_test.go) runs a victim flow beside a hot
// spot on Configuration #1 under CCFIT and prints the victim's
// bandwidth; Example_hotspot and Example_fattree compare the schemes.
// Their output is pinned and a test beside each asserts its claim:
// go test -run Example_ -v .
//
// To reproduce a figure directly:
//
//	exp, _ := experiments.ByID("fig8b")
//	var results []*experiments.Result
//	for _, scheme := range exp.Schemes {
//		r, _ := experiments.Run(exp, scheme, 1)
//		results = append(results, r)
//	}
//	experiments.RenderThroughput(os.Stdout, exp, results)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package ccfit
