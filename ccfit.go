// Package ccfit is a cycle-level reproduction of "Combining
// Congested-Flow Isolation and Injection Throttling in HPC
// Interconnection Networks" (Escudero-Sahuquillo et al., ICPP 2011).
//
// It provides, as a library:
//
//   - a deterministic cycle-level simulator of lossless, credit-based
//     input-queued interconnection networks (virtual cut-through
//     switching, iSLIP crossbar scheduling, table-based deterministic
//     routing, k-ary n-tree and ad-hoc topologies);
//   - the paper's congestion-management schemes as presets: 1Q, FBICM
//     (congested-flow isolation), ITh (InfiniBand-style injection
//     throttling over VOQsw), CCFIT (the paper's contribution:
//     isolation + throttling), VOQnet (the near-ideal reference), and
//     the related-work queue organisations as extra baselines (Schemes
//     lists every preset);
//   - the paper's complete evaluation as a registry of runnable
//     experiments (Table I, Figs. 7-10), with text and CSV renderers.
//
// # Quick start
//
//	p := ccfit.CCFIT()
//	net, err := ccfit.Build(ccfit.Config1(), p, ccfit.Options{Seed: 1})
//	if err != nil { ... }
//	err = net.AddFlows([]ccfit.Flow{
//		{ID: 0, Src: 0, Dst: 3, Start: 0, End: ccfit.MS(10), Rate: 1.0},
//	})
//	net.RunMS(10)
//	fmt.Println(net.Collector.TotalSeries(0))
//
// Or reproduce a figure directly:
//
//	exp, _ := ccfit.ExperimentByID("fig8b")
//	results, _ := ccfit.RunAll(exp, 1)
//	ccfit.RenderThroughput(os.Stdout, exp, results)
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record of every figure.
package ccfit

import (
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pkt"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Core simulation types, re-exported for library users.
type (
	// Params bundles every congestion-management tunable; start from a
	// scheme preset and override fields as needed.
	Params = core.Params
	// Network is a fully wired, runnable simulation instance.
	Network = network.Network
	// Options configure a Build (seed, metrics bin, routing tie-break).
	Options = network.Options
	// Flow describes one traffic source (fixed or uniform destination).
	Flow = traffic.Flow
	// Topology describes endpoints, switches and links.
	Topology = topo.Topology
	// FatTree is a k-ary n-tree with DET-routing metadata.
	FatTree = topo.FatTree
	// LeafSpine is a two-level Clos fabric with DET-routing metadata.
	LeafSpine = topo.LeafSpine
	// CDF is an empirical flow-size distribution for open-loop traffic.
	CDF = traffic.CDF
	// OpenLoop is a CDF-driven Poisson open-loop workload spec.
	OpenLoop = traffic.OpenLoop
	// FCTStats summarizes flow completion times by size bucket.
	FCTStats = metrics.FCTStats
	// Builder constructs ad-hoc topologies.
	Builder = topo.Builder
	// Cycle is simulated time (25.6 ns per cycle).
	Cycle = sim.Cycle
	// TieBreak selects among equal-cost routes.
	TieBreak = route.TieBreak
	// Experiment is one entry of the paper's evaluation registry.
	Experiment = experiments.Experiment
	// Result is one (experiment, scheme) run outcome.
	Result = experiments.Result
	// FaultScript is a deterministic, replayable fault scenario
	// (scripted link flaps, degrades, control-channel tampering,
	// switch stalls, node pauses); inject with Network.InjectFaults.
	FaultScript = fault.Script
	// FaultEvent is one scripted fault.
	FaultEvent = fault.Event
	// InvariantViolation is a failed runtime invariant (conservation,
	// credit bounds, CAM leak, watchdog) with its diagnostic snapshot.
	InvariantViolation = invariant.Violation
)

// UniformDst marks a Flow that draws a fresh random destination for
// every packet.
const UniformDst = traffic.UniformDst

// MTU is the packet maximum transfer unit (2048 bytes, Table I).
const MTU = pkt.MTU

// Build wires a network for a topology and scheme parameters.
func Build(t *Topology, p Params, opt Options) (*Network, error) {
	return network.Build(t, p, opt)
}

// BuildFatTree wires a fat-tree network with DET routing installed.
func BuildFatTree(f *FatTree, p Params, opt Options) (*Network, error) {
	opt.TieBreak = f.DETTieBreak
	return network.Build(f.Topology, p, opt)
}

// NewTopology returns a builder for ad-hoc topologies.
func NewTopology(name string) *Builder { return topo.NewBuilder(name) }

// KaryNTree builds a k-ary n-tree with uniform links of
// bytesPerCycle bandwidth (64 = 2.5 GB/s) and the given delay.
func KaryNTree(k, n, bytesPerCycle int, delay Cycle) (*FatTree, error) {
	return topo.KaryNTree(k, n, bytesPerCycle, delay)
}

// NewLeafSpine builds a two-level Clos fabric: `leaves` leaf switches
// with `down` endpoints each, meshed to `spines` spine switches by
// `trunk` parallel links per pair (oversubscription ratio
// down : spines*trunk).
func NewLeafSpine(leaves, down, spines, trunk, bytesPerCycle int, delay Cycle) (*LeafSpine, error) {
	return topo.NewLeafSpine(leaves, down, spines, trunk, bytesPerCycle, delay)
}

// BuildLeafSpine wires a leaf-spine network with DET routing installed.
func BuildLeafSpine(ls *LeafSpine, p Params, opt Options) (*Network, error) {
	opt.TieBreak = ls.DETTieBreak
	return network.Build(ls.Topology, p, opt)
}

// Config1 returns the paper's Configuration #1 (7 nodes, 2 switches).
func Config1() *Topology { return topo.Config1() }

// Config2 returns Configuration #2 (2-ary 3-tree).
func Config2() *FatTree { return topo.Config2() }

// Config3 returns Configuration #3 (4-ary 3-tree, 64 nodes).
func Config3() *FatTree { return topo.Config3() }

// MS converts milliseconds of simulated time to cycles.
func MS(ms float64) Cycle { return sim.CyclesFromMS(ms) }

// NS converts nanoseconds of simulated time to cycles.
func NS(ns float64) Cycle { return sim.CyclesFromNS(ns) }

// JainIndex computes Jain's fairness index over per-flow bandwidths:
// 1.0 is perfectly fair, 1/n is maximally unfair.
func JainIndex(xs []float64) float64 { return metrics.JainIndex(xs) }

// LoadFaultScript reads and validates a JSON fault script (see
// scripts/faults/ for examples and DESIGN.md for the event grammar).
func LoadFaultScript(path string) (*FaultScript, error) { return fault.Load(path) }

// IsInvariantViolation reports whether err is (or wraps) a runtime
// invariant violation — deterministic failures the runner quarantines
// instead of retrying.
func IsInvariantViolation(err error) bool { return invariant.IsViolation(err) }
