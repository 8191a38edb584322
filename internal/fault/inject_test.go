package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// forever mirrors the injector's horizon for a Duration-0 stall or pause.
const forever sim.Cycle = 1 << 56

// hotspot builds Config #1 under CCFIT with a hot spot on node 4 fed by
// nodes 1, 2 and 5, and a victim flow 0->3. The swB->swA trunk then
// carries the CFQ protocol's upstream control messages. Violations are
// collected, not fatal: a stall or a tampered Stop/Go may wedge the
// fabric on purpose.
func hotspot(t *testing.T) *network.Network {
	t.Helper()
	n, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{
		Seed: 41, OnViolation: func(*invariant.Violation) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	var flows []traffic.Flow
	for id, f := range [][2]int{{0, 3}, {1, 4}, {2, 4}, {5, 4}} {
		flows = append(flows, traffic.Flow{ID: id, Src: f[0], Dst: f[1], End: 150_000, Rate: 1})
	}
	if err := n.AddFlows(flows); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestScheduleStallAndPause drives ScheduleSwitchStall and
// ScheduleNodePause directly: nothing happens before the scheduled
// cycle, each window then ends where its duration says (Duration 0: at
// the forever horizon), and each application is counted once.
func TestScheduleStallAndPause(t *testing.T) {
	n := hotspot(t)
	in := fault.NewInjector(n.Eng, 41, 0)
	swA, swB := n.SwitchByDevice(topo.Config1SwitchA), n.SwitchByDevice(topo.Config1SwitchB)
	in.ScheduleSwitchStall(1_000, 500, swA)
	in.ScheduleSwitchStall(2_000, 0, swB)
	in.ScheduleNodePause(1_500, 300, n.Nodes[1])
	in.ScheduleNodePause(2_500, -1, n.Nodes[2])

	n.Run(999)
	if got := in.Stats(); got != (fault.Stats{}) {
		t.Fatalf("before cycle 1000: %+v, want nothing applied", got)
	}
	if swA.StalledUntil() != 0 || n.Nodes[1].PausedUntil() != 0 {
		t.Fatalf("before cycle 1000: swA stalled until %d, node 1 paused until %d", swA.StalledUntil(), n.Nodes[1].PausedUntil())
	}
	n.Run(10_000)
	if got, want := in.Stats(), (fault.Stats{Stalls: 2, Pauses: 2}); got != want {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
	for _, c := range []struct {
		what      string
		got, want sim.Cycle
	}{
		{"swA stalled until", swA.StalledUntil(), 1_500},
		{"swB stalled until", swB.StalledUntil(), 2_000 + forever},
		{"node 1 paused until", n.Nodes[1].PausedUntil(), 1_800},
		{"node 2 paused until", n.Nodes[2].PausedUntil(), 2_500 + forever},
		{"node 5 paused until", n.Nodes[5].PausedUntil(), 0},
	} {
		if c.got != c.want {
			t.Errorf("%s %d, want %d", c.what, c.got, c.want)
		}
	}
}

// TestScheduleCtlTamper drives each control-tamper kind on the swB->swA
// trunk at probability 0 (read as 1): inside the window every non-credit
// message is tampered with and counted under its own kind only, and once
// the window closes the link is untouched again.
func TestScheduleCtlTamper(t *testing.T) {
	for _, kind := range []fault.Kind{fault.CtlCorrupt, fault.CtlDuplicate, fault.CtlDelay} {
		t.Run(string(kind), func(t *testing.T) {
			n := hotspot(t)
			in := fault.NewInjector(n.Eng, 41, 7)
			h := n.HalfByEnds(topo.Config1SwitchB, topo.Config1SwitchA)
			in.ScheduleCtlTamper(10_000, 100_000, h, kind, 0, 64, n.Params.NumCFQs)

			n.Run(10_000)
			if got := in.Stats(); got != (fault.Stats{}) {
				t.Fatalf("before the window: %+v", got)
			}
			n.Run(100_000)
			got := in.Stats()
			count := map[fault.Kind]int{fault.CtlCorrupt: got.Corrupted, fault.CtlDuplicate: got.Duplicated, fault.CtlDelay: got.Delayed}
			for k, c := range count {
				if (k == kind) != (c > 0) {
					t.Errorf("%s count %d under a %s window: %+v", k, c, kind, got)
				}
			}
			n.Run(100_000)
			if after := in.Stats(); after != got {
				t.Errorf("tampering went on past the window: %+v, then %+v", got, after)
			}
		})
	}
}

// TestScheduleCtlTamperUnknownKind: a kind that is not a control-tamper
// kind is a programming error, caught when the fault is scheduled.
func TestScheduleCtlTamperUnknownKind(t *testing.T) {
	n := hotspot(t)
	in := fault.NewInjector(n.Eng, 41, 0)
	h := n.HalfByEnds(topo.Config1SwitchB, topo.Config1SwitchA)
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, `"link-flap" is not a control-tamper kind`) {
			t.Fatalf("panic %q, want the unknown-kind message", msg)
		}
	}()
	in.ScheduleCtlTamper(0, 0, h, fault.LinkFlap, 1, 0, n.Params.NumCFQs)
}
