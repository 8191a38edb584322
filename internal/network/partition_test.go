package network

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// MakePartition on Config #1 (two switches) must put one switch per
// shard, carry every endpoint with its edge switch, and set the window
// to the minimum delay over the cut (the inter-switch trunk).
func TestMakePartitionConfig1(t *testing.T) {
	top := topo.Config1()
	part, err := MakePartition(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if part == nil {
		t.Fatal("no partition for 2 workers over 2 switches")
	}
	if part.N != 2 || part.Workers != 2 {
		t.Fatalf("N = %d on %d workers, want 2 on 2", part.N, part.Workers)
	}
	if sa, sb := part.ShardOf[topo.Config1SwitchA], part.ShardOf[topo.Config1SwitchB]; sa == sb {
		t.Fatalf("both switches in shard %d", sa)
	}
	for _, d := range top.Devices {
		if d.Kind != topo.Endpoint {
			continue
		}
		sw := d.Ports[0].Peer
		if part.ShardOf[d.ID] != part.ShardOf[sw] {
			t.Fatalf("endpoint %d in shard %d, its switch %d in shard %d",
				d.ID, part.ShardOf[d.ID], sw, part.ShardOf[sw])
		}
	}
	// Exactly the A<->B trunk is cut; its delay is the lookahead.
	if part.CutLinks != 1 {
		t.Fatalf("CutLinks = %d, want 1", part.CutLinks)
	}
	if part.Window != topo.DefaultLinkDelay {
		t.Fatalf("Window = %d, want %d", part.Window, topo.DefaultLinkDelay)
	}
}

// Oversized worker counts are capped at the switch count; 1 worker (or
// a single-switch topology) means no partition at all.
func TestMakePartitionDegenerateSizes(t *testing.T) {
	top := topo.Config1()
	if p, err := MakePartition(top, 1); err != nil || p != nil {
		t.Fatalf("workers=1: got (%v, %v), want (nil, nil)", p, err)
	}
	p, err := MakePartition(top, 64) // only 2 switches exist
	if err != nil {
		t.Fatal(err)
	}
	if p == nil || p.N != 2 || p.Workers != 2 {
		t.Fatalf("workers=64 over 2 switches: got %+v, want N=2 on 2 workers", p)
	}
}

// More shards than workers: the cut is shardsPerWorker shards per
// worker, every one of them non-empty, every endpoint rides with its
// edge switch, and the window is the smallest delay among the links
// that ended up cut — checked on a chain whose links all differ.
func TestMakePartitionMoreShardsThanWorkers(t *testing.T) {
	b := topo.NewBuilder("chain of 10 switches, one endpoint each")
	b.SetDefaultLink(64, 2)
	const n = 10
	for i := 0; i < n; i++ {
		b.AddEndpoint(fmt.Sprint("node", i))
	}
	var sw [n]int
	for i := range sw {
		sw[i] = b.AddSwitch(fmt.Sprint("sw", i), 3)
		b.Connect(i, 0, sw[i], 0)
	}
	delays := []sim.Cycle{9, 8, 7, 6, 5, 11, 12, 13, 14}
	for i, d := range delays {
		b.ConnectLink(sw[i], 2, sw[i+1], 1, 64, d)
	}
	top := b.MustBuild()

	part, err := MakePartition(top, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := MakePartition(top, 2); !reflect.DeepEqual(part, again) {
		t.Fatal("two calls disagree")
	}
	if part.N != 2*shardsPerWorker || part.Workers != 2 {
		t.Fatalf("%d shards on %d workers, want %d on 2", part.N, part.Workers, 2*shardsPerWorker)
	}
	switches := make([]int, part.N)
	for _, d := range top.Devices {
		switch d.Kind {
		case topo.Switch:
			switches[part.ShardOf[d.ID]]++
		case topo.Endpoint:
			if edge := d.Ports[0].Peer; part.ShardOf[d.ID] != part.ShardOf[edge] {
				t.Fatalf("endpoint %d in shard %d, its switch %d in shard %d", d.ID, part.ShardOf[d.ID], edge, part.ShardOf[edge])
			}
		}
	}
	for s, c := range switches {
		if c == 0 {
			t.Fatalf("shard %d has no switch: %v", s, switches)
		}
	}
	cuts, window := 0, sim.Cycle(0)
	for _, l := range top.Links {
		if part.ShardOf[l.DevA] != part.ShardOf[l.DevB] {
			cuts++
			if window == 0 || l.Delay < window {
				window = l.Delay
			}
		}
	}
	// Eight shards over a chain of ten switches cut seven of its links.
	if cuts != part.N-1 || part.CutLinks != cuts {
		t.Fatalf("CutLinks = %d, counted %d, want %d", part.CutLinks, cuts, part.N-1)
	}
	if part.Window != window {
		t.Fatalf("Window = %d, min delay over the cut links is %d", part.Window, window)
	}
	if window == 2 {
		t.Fatal("an endpoint link (delay 2) was cut")
	}
}

// PartitionInfo reports the cut plus what the coordinator did: on a
// network with nothing to do nearly every window is skipped, and the
// counters are the same on every run.
func TestPartitionInfoCounters(t *testing.T) {
	stats := func(flows []traffic.Flow) *PartitionStats {
		n, err := Build(topo.Config3().Topology, core.PresetCCFIT(), Options{Seed: 3, SimWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		addFlows(t, n, flows)
		n.Run(4000)
		return n.PartitionInfo()
	}
	idle := stats(nil)
	if idle.N != 8 || idle.Workers != 2 || idle.Window != topo.DefaultLinkDelay {
		t.Fatalf("idle partition = %+v", idle.Partition)
	}
	// One window for the components to find out they have nothing to do
	// and go to sleep, one for the rest of the run.
	if idle.Windows != 2 || idle.Skipped != int64(4000/topo.DefaultLinkDelay)-2 {
		t.Fatalf("idle network ran %d windows and skipped %d, want 2 and %d", idle.Windows, idle.Skipped, 4000/topo.DefaultLinkDelay-2)
	}
	flows := []traffic.Flow{{ID: 0, Src: 0, Dst: 63, Start: 0, End: 4000, Rate: 1.0}}
	a, b := stats(flows), stats(flows)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical runs report different counters:\n%+v\n%+v", a, b)
	}
	// The source sleeps between packets now, so the coordinator skips
	// inside the busy run too; a skip that ends off the window grid counts
	// its last partial width as one.
	if all := a.Windows + a.Skipped; all < int64(4000/topo.DefaultLinkDelay) || all > int64(4000/topo.DefaultLinkDelay)+a.Windows || a.Windows < 2 || a.Skipped == 0 {
		t.Fatalf("busy network: %d windows + %d skipped, want %d in all", a.Windows, a.Skipped, 4000/topo.DefaultLinkDelay)
	}
	// One flow crosses few of the eight shards: the busiest shard did
	// well over the mean shard's work.
	if a.WorkImbalance <= 1.5 || a.WorkImbalance > 8 {
		t.Fatalf("WorkImbalance = %.2f for a single flow over 8 shards", a.WorkImbalance)
	}
	if s := a.String(); !strings.Contains(s, "8 shards on 2 workers") {
		t.Fatalf("String() = %q", s)
	}
}

// The partitioner is a pure function of (topology, workers): two calls
// must agree exactly, and every shard must be non-empty and roughly
// weight-balanced on a regular fat tree.
func TestMakePartitionDeterministicAndBalanced(t *testing.T) {
	top := topo.Config3().Topology // 4-ary 3-tree: 64 endpoints, 48 switches
	for _, workers := range []int{2, 3, 4, 8} {
		a, err := MakePartition(top, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MakePartition(top, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("workers=%d: two runs disagree", workers)
		}
		if want := min(shardsPerWorker*workers, 48); a.N != want || a.Workers != workers {
			t.Fatalf("workers=%d: %d shards on %d workers, want %d on %d", workers, a.N, a.Workers, want, workers)
		}
		weight := make([]int, a.N)
		for dev, s := range a.ShardOf {
			if s < 0 || s >= a.N {
				t.Fatalf("workers=%d: device %d in shard %d of %d", workers, dev, s, a.N)
			}
			if top.Devices[dev].Kind == topo.Switch {
				weight[s] += 1 + len(top.Devices[dev].Ports)
			}
		}
		total := 0
		for _, w := range weight {
			if w == 0 {
				t.Fatalf("workers=%d: empty shard, weights %v", workers, weight)
			}
			total += w
		}
		for s, w := range weight {
			// Greedy BFS aims at total/N per shard; allow 2x slack.
			if w > 2*total/a.N {
				t.Fatalf("workers=%d: shard %d weight %d of %d is unbalanced: %v", workers, s, w, total, weight)
			}
		}
	}
}

// A partitioned build must refuse fault events the partitioned engine
// cannot replay deterministically — cut-link faults and the rng-driven
// control-plane kinds — and accept the pure shard-local ones.
func TestPartitionedFaultRejections(t *testing.T) {
	build := func() *Network {
		n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{Seed: 7, SimWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if n.PartitionInfo() == nil {
			t.Fatal("build is not partitioned")
		}
		return n
	}
	// The A<->B trunk is the cut link; degrading it must be rejected.
	n := build()
	if _, err := n.InjectFaults(&fault.Script{Name: "cut", Events: []fault.Event{{
		Kind: fault.LinkDegrade, AtMS: 1, DurationMS: 1,
		Link:   &fault.LinkRef{From: topo.Config1SwitchA, To: topo.Config1SwitchB},
		Params: fault.Params{BytesPerCycle: 16},
	}}}); err == nil {
		t.Fatal("cut-link fault accepted under partitioned engine")
	}
	// CtlNoise draws from the injector rng at runtime; rejected.
	n = build()
	if _, err := n.InjectFaults(&fault.Script{Name: "noise", Events: []fault.Event{{
		Kind: fault.CtlNoise, AtMS: 1, DurationMS: 1,
	}}}); err == nil {
		t.Fatal("rng-driven control noise accepted under partitioned engine")
	}
	// An endpoint access link never crosses shards: accepted.
	n = build()
	if _, err := n.InjectFaults(&fault.Script{Name: "edge", Events: []fault.Event{{
		Kind: fault.LinkFlap, AtMS: 1, DurationMS: 0.5,
		Link: &fault.LinkRef{From: topo.Config1SwitchB, To: 4},
	}}}); err != nil {
		t.Fatalf("shard-local flap rejected: %v", err)
	}
}

// Chaos-style end-to-end check under the partitioned engine (run with
// -race in CI): a faulted congested run must stay lossless and agree
// with an identical second run — the partitioned engine's losslessness
// and determinism do not depend on goroutine scheduling.
func TestPartitionedFaultedRunDeterministicAndLossless(t *testing.T) {
	run := func(workers int) (int, int) {
		n, err := Build(topo.Config1(), core.PresetCCFIT(), Options{Seed: 11, SimWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		addFlows(t, n, []traffic.Flow{
			{ID: 0, Src: 0, Dst: 3, Start: 0, End: 40_000, Rate: 1.0},
			{ID: 1, Src: 1, Dst: 4, Start: 0, End: 40_000, Rate: 1.0},
			{ID: 2, Src: 2, Dst: 4, Start: 0, End: 40_000, Rate: 1.0},
			{ID: 5, Src: 5, Dst: 4, Start: 5_000, End: 40_000, Rate: 1.0},
		})
		if _, err := n.InjectFaults(&fault.Script{Name: "flap", Events: []fault.Event{{
			Kind: fault.LinkFlap, AtMS: 0.004, DurationMS: 0.004,
			Link: &fault.LinkRef{From: topo.Config1SwitchB, To: 4},
		}}}); err != nil {
			t.Fatal(err)
		}
		n.Run(80_000)
		op, _ := n.TotalOffered()
		dp, _ := n.TotalDelivered()
		if err := n.Checker.Final(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return op, dp
	}
	op2, dp2 := run(2)
	if dp2 == 0 {
		t.Fatal("nothing delivered under partitioned engine")
	}
	if op2 != dp2 {
		t.Fatalf("lossless violated under faults: offered %d, delivered %d", op2, dp2)
	}
	op2b, dp2b := run(2)
	if op2 != op2b || dp2 != dp2b {
		t.Fatalf("two identical partitioned runs disagree: (%d,%d) vs (%d,%d)", op2, dp2, op2b, dp2b)
	}
	op1, dp1 := run(1)
	if op1 != op2 || dp1 != dp2 {
		t.Fatalf("serial (%d,%d) vs partitioned (%d,%d) totals disagree", op1, dp1, op2, dp2)
	}
}
