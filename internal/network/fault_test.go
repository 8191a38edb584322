package network

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/sim"
	"repro/internal/testutil"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// hotspotFlows is the shared fault-test workload: a Case #1 style hot
// spot on node 4 plus a victim flow, all ending at `end` cycles.
func hotspotFlows(e sim.Cycle) []traffic.Flow {
	return []traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: e, Rate: 1.0},
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: e, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: e, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: e, Rate: 1.0},
	}
}

// digest captures everything a replay must reproduce: totals, per-node
// stats, latency shape, injector activity, and the engine clock.
func digest(t *testing.T, n *Network) string {
	t.Helper()
	var d testutil.Digest
	op, ob := n.TotalOffered()
	dp, db := n.TotalDelivered()
	d.Addf("offered=%d/%d delivered=%d/%d now=%d", op, ob, dp, db, n.Eng.Now())
	for _, nd := range n.Nodes {
		d.Addf("node%d %+v", nd.ID(), nd.Stats())
	}
	for _, sw := range n.Switches {
		d.Addf("%s %+v", sw.Name(), sw.Stats())
	}
	d.Addf("p50=%v p99=%v max=%v",
		n.Collector.LatencyPercentileNS(0.50), n.Collector.LatencyPercentileNS(0.99), n.Collector.MaxLatencyNS())
	if in := n.FaultInjector(); in != nil {
		d.Addf("faults %+v", in.Stats())
	}
	d.Addf("pool allocs=%d reuses=%d releases=%d", n.pool.Allocs, n.pool.Reuses, n.pool.Releases)
	return d.String()
}

// interSwitchFlap is the acceptance scenario: Config #1's inter-switch
// link (device 7 -> 8) flaps mid-run while the hot spot is active.
func interSwitchFlap(drop bool) *fault.Script {
	return &fault.Script{
		Name: "inter-switch-flap",
		Seed: 5,
		Events: []fault.Event{{
			Kind:     fault.LinkFlap,
			At:       40_000,
			Duration: 20_000,
			Link:     &fault.LinkRef{From: topo.Config1SwitchA, To: topo.Config1SwitchB},
			Params:   fault.Params{Drop: drop},
		}},
	}
}

func runFaulted(t *testing.T, seed int64, script *fault.Script) *Network {
	t.Helper()
	n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	addFlows(t, n, hotspotFlows(150_000))
	if script != nil {
		if _, err := n.InjectFaults(script); err != nil {
			t.Fatal(err)
		}
	}
	n.Run(500_000)
	return n
}

// TestFaultReplayDeterministic is the determinism acceptance test: the
// same seed and the same fault script replay to byte-identical metrics.
func TestFaultReplayDeterministic(t *testing.T) {
	a := runFaulted(t, 41, interSwitchFlap(false))
	b := runFaulted(t, 41, interSwitchFlap(false))
	da, db := digest(t, a), digest(t, b)
	if da != db {
		t.Fatalf("replay diverged at %s", testutil.FirstDiff(da, db))
	}
	if a.FaultInjector().Stats().Flaps != 1 {
		t.Fatalf("flap not applied: %+v", a.FaultInjector().Stats())
	}
	// A different script seed must not change anything either for a
	// flap (no randomized decisions), keeping script fingerprints honest.
	s := interSwitchFlap(false)
	s.Seed = 6
	c := runFaulted(t, 41, s)
	if digest(t, c) != da {
		t.Fatal("flap outcome depends on the script seed (it draws no randomness)")
	}
}

// TestFaultFlapPreservePolicy: with the default lossless-aware policy,
// in-flight packets ride out the outage and nothing is lost.
func TestFaultFlapPreservePolicy(t *testing.T) {
	n := runFaulted(t, 41, interSwitchFlap(false))
	op, ob := n.TotalOffered()
	dp, db := n.TotalDelivered()
	if op != dp || ob != db {
		t.Fatalf("preserve policy lost traffic: offered %d/%d delivered %d/%d", op, ob, dp, db)
	}
	if err := n.Checker.Final(); err != nil {
		t.Fatalf("post-run audit: %v", err)
	}
}

// TestFaultFlapDropPolicy: with Drop, packets on the wire at failure
// time are condemned, counted, credit-refunded and released exactly
// once — the conservation ledger and the pool double-release sentinel
// both audit the cleanup, and the rest of the fabric keeps flowing.
func TestFaultFlapDropPolicy(t *testing.T) {
	n := runFaulted(t, 41, interSwitchFlap(true))
	stats := n.FaultInjector().Stats()
	if stats.Condemned == 0 {
		t.Fatal("drop-policy flap condemned nothing (flap window misses traffic?)")
	}
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if dp+stats.Condemned != op {
		t.Fatalf("offered %d != delivered %d + condemned %d", op, dp, stats.Condemned)
	}
	// The dropped packets were released back to the pool exactly once:
	// a second release would have panicked (pkt sentinel), and a missed
	// release would break the allocs/releases balance after drain.
	if n.pool.Releases != n.pool.Allocs+n.pool.Reuses {
		t.Fatalf("pool imbalance after drain: allocs=%d reuses=%d releases=%d",
			n.pool.Allocs, n.pool.Reuses, n.pool.Releases)
	}
	if err := n.Checker.Final(); err != nil {
		t.Fatalf("post-run audit: %v", err)
	}
}

// TestShippedDropScriptReachesTheRefund: scripts/faults/flap-drop-degrade.json
// is the script the CLI-level comparisons replay to cover the refund of
// dropped packets' credit (a switch's access port, a node's uplink and
// the inter-switch link, the first under a degrade). It must actually
// condemn packets, or those comparisons cover nothing.
func TestShippedDropScriptReachesTheRefund(t *testing.T) {
	script, err := fault.Load("../../scripts/faults/flap-drop-degrade.json")
	if err != nil {
		t.Fatal(err)
	}
	n := runFaulted(t, 41, script)
	stats := n.FaultInjector().Stats()
	if stats.Flaps != 3 || stats.Degrades != 1 || stats.Condemned < 3 {
		t.Fatalf("script did not do its work: %+v", stats)
	}
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if dp+stats.Condemned != op {
		t.Fatalf("offered %d != delivered %d + condemned %d", op, dp, stats.Condemned)
	}
	if err := n.Checker.Final(); err != nil {
		t.Fatalf("post-run audit: %v", err)
	}
}

// TestFaultDegradeRestores: a degrade window halves the inter-switch
// bandwidth, then restores the nominal rate; traffic stays lossless
// throughout.
func TestFaultDegradeRestores(t *testing.T) {
	bpc := 2 * 64 // Config #1 inter-switch link is 2 flits/cycle
	script := &fault.Script{
		Name: "inter-switch-degrade",
		Events: []fault.Event{{
			Kind:     fault.LinkDegrade,
			At:       40_000,
			Duration: 40_000,
			Link:     &fault.LinkRef{From: topo.Config1SwitchA, To: topo.Config1SwitchB},
			Params:   fault.Params{BytesPerCycle: bpc / 2},
		}},
	}
	n := runFaulted(t, 41, script)
	if n.FaultInjector().Stats().Degrades != 1 {
		t.Fatal("degrade not applied")
	}
	h := n.HalfByEnds(topo.Config1SwitchA, topo.Config1SwitchB)
	if h.BytesPerCycle() != h.NominalBPC() {
		t.Fatalf("bandwidth not restored: %d of %d", h.BytesPerCycle(), h.NominalBPC())
	}
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if op != dp {
		t.Fatalf("degrade lost traffic: offered %d delivered %d", op, dp)
	}
	if err := n.Checker.Final(); err != nil {
		t.Fatalf("post-run audit: %v", err)
	}
}

// TestFaultCtlTamper: corrupt, duplicate and delay windows on the
// inter-switch CFQ control channel (credits exempt). Unlike additive
// ctl-noise, tampering with *real* protocol messages legitimately
// breaks liveness — a CFQGo whose index is scrambled leaves its CFQ
// stopped forever. The contract under test is that the wedge does not
// hang silently: the watchdog detects the dead traffic and the
// snapshot names the STOPPED CAM lines, turning a protocol-reliability
// failure into a diagnosis. (This is exactly why credit messages are
// exempt and why real hardware retries the control channel.)
func TestFaultCtlTamper(t *testing.T) {
	var got *invariant.Violation
	n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{
		Seed: 41,
		OnViolation: func(v *invariant.Violation) {
			if got == nil {
				got = v
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addFlows(t, n, hotspotFlows(150_000))
	lk := &fault.LinkRef{From: topo.Config1SwitchB, To: topo.Config1SwitchA}
	if _, err := n.InjectFaults(&fault.Script{
		Name: "ctl-tamper",
		Seed: 11,
		Events: []fault.Event{
			{Kind: fault.CtlCorrupt, At: 10_000, Duration: 30_000, Link: lk, Params: fault.Params{Prob: 0.5}},
			{Kind: fault.CtlDuplicate, At: 50_000, Duration: 30_000, Link: lk, Params: fault.Params{Prob: 0.5}},
			{Kind: fault.CtlDelay, At: 90_000, Duration: 30_000, Link: lk, Params: fault.Params{Prob: 0.5, Delay: 64}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	n.Run(500_000)
	st := n.FaultInjector().Stats()
	if st.Corrupted == 0 {
		t.Fatalf("corrupt window touched nothing: %+v", st)
	}
	if got == nil {
		t.Fatal("tampered Stop/Go wedged nothing — expected the watchdog to report the stuck CFQs")
	}
	if got.Check != "watchdog" {
		t.Fatalf("violation check = %q, want watchdog", got.Check)
	}
	if !strings.Contains(got.Snapshot, "STOPPED") {
		t.Fatalf("snapshot does not show the stuck-stopped CAM lines:\n%s", got.Snapshot)
	}
}

// TestFaultNodePause: a paused hot-spot source stops injecting for the
// window and resumes; nothing is lost.
func TestFaultNodePause(t *testing.T) {
	node := 1
	script := &fault.Script{
		Name: "pause-node1",
		Events: []fault.Event{{
			Kind:     fault.NodePause,
			At:       30_000,
			Duration: 30_000,
			Node:     &node,
		}},
	}
	n := runFaulted(t, 41, script)
	if n.FaultInjector().Stats().Pauses != 1 {
		t.Fatal("pause not applied")
	}
	op, _ := n.TotalOffered()
	dp, _ := n.TotalDelivered()
	if op != dp {
		t.Fatalf("pause lost traffic: offered %d delivered %d", op, dp)
	}
}

// TestWatchdogNamesBlockedPorts is the watchdog acceptance test: a
// switch wedged by a scripted stall must be detected within the
// configured window, and the diagnostic snapshot must name the wedged
// switch and its blocked ports.
func TestWatchdogNamesBlockedPorts(t *testing.T) {
	var got *invariant.Violation
	n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{
		Seed:           41,
		WatchdogWindow: 10_000,
		OnViolation: func(v *invariant.Violation) {
			if got == nil {
				got = v
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	addFlows(t, n, hotspotFlows(5_000))
	swB := topo.Config1SwitchB
	if _, err := n.InjectFaults(&fault.Script{
		Name:   "wedge-swB",
		Events: []fault.Event{{Kind: fault.SwitchStall, At: 1_000, Switch: &swB}},
	}); err != nil {
		t.Fatal(err)
	}
	n.Run(100_000)
	if got == nil {
		t.Fatal("watchdog never fired on a wedged switch")
	}
	if got.Check != "watchdog" {
		t.Fatalf("violation check = %q, want watchdog", got.Check)
	}
	// Detection latency: stalled traffic is declared dead within the
	// window plus one check interval, not at the end of the run.
	if got.Cycle > 5_000+10_000+2*1024 {
		t.Fatalf("watchdog fired late, at cycle %d", got.Cycle)
	}
	snap := got.Snapshot
	if !strings.Contains(snap, "swB") {
		t.Fatalf("snapshot does not name the wedged switch:\n%s", snap)
	}
	if !strings.Contains(snap, "stalled") {
		t.Fatalf("snapshot does not flag the stall:\n%s", snap)
	}
	if !strings.Contains(snap, "ledger:") || !strings.Contains(snap, "buffered=") {
		t.Fatalf("snapshot lacks the ledger line:\n%s", snap)
	}
}

// TestGoldenDigestUnchangedByFaultMachinery proves the fault plumbing
// is zero-outcome-change when no faults are scripted: a Build with the
// checker on and no script is byte-identical to one with invariants
// disabled entirely.
func TestGoldenDigestUnchangedByFaultMachinery(t *testing.T) {
	build := func(opt Options) string {
		n, err := Build(topo.Config1(), core.PresetCCFIT(), opt)
		if err != nil {
			t.Fatal(err)
		}
		addFlows(t, n, hotspotFlows(150_000))
		n.Run(400_000)
		return digest(t, n)
	}
	checked := build(Options{Seed: 13})
	bare := build(Options{Seed: 13, DisableInvariants: true})
	if checked != bare {
		t.Fatalf("checker changed simulation outcomes:\n--- checked ---\n%s--- bare ---\n%s", checked, bare)
	}
}
