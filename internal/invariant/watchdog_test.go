package invariant_test

import (
	"errors"
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

// wedged builds Config #1 under CCFIT with a hot spot onto node 4 and a
// watchdog window of 4096 cycles, and stalls switch B for good at cycle
// 2000: every hot flow crosses it, so the fabric stops moving with
// traffic buffered. Violations land in *got.
func wedged(t *testing.T, got *[]*invariant.Violation) *network.Network {
	t.Helper()
	n, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{
		Seed:        1,
		OnViolation: func(v *invariant.Violation) { *got = append(*got, v) },
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Checker.SetWatchdogWindow(4096)
	var flows []traffic.Flow
	for id, f := range [][2]int{{0, 3}, {1, 4}, {2, 4}, {5, 4}} {
		flows = append(flows, traffic.Flow{ID: id, Src: f[0], Dst: f[1], End: sim.CyclesFromMS(0.25), Rate: 1})
	}
	if err := n.AddFlows(flows); err != nil {
		t.Fatal(err)
	}
	swB := topo.Config1SwitchB
	if _, err := n.InjectFaults(&fault.Script{Name: "wedge", Events: []fault.Event{{Kind: fault.SwitchStall, At: 2000, Switch: &swB}}}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSetWatchdogWindow: a window of 0 restores the 262 144-cycle
// default (the wedge is reported after that long, not after the 4096
// that wedged sets), and a negative window never trips however
// long the fabric stays stalled, until a positive one is set again.
func TestSetWatchdogWindow(t *testing.T) {
	const def = 262_144
	t.Run("zero restores the default", func(t *testing.T) {
		var got []*invariant.Violation
		n := wedged(t, &got)
		n.Checker.SetWatchdogWindow(0)
		n.Run(2000 + def)
		if len(got) != 0 {
			t.Fatalf("watchdog fired at cycle %d, before a default window had passed since the stall", got[0].Cycle)
		}
		n.Run(64 * 1024)
		if len(got) != 1 || got[0].Check != "watchdog" {
			t.Fatalf("violations %v, want one watchdog report", got)
		}
		if !strings.Contains(got[0].Detail, "no packet movement for 26") {
			t.Errorf("detail %q does not report a default-length stall", got[0].Detail)
		}
	})
	t.Run("negative never trips", func(t *testing.T) {
		var got []*invariant.Violation
		n := wedged(t, &got)
		n.Checker.SetWatchdogWindow(-1)
		n.Run(4 * def)
		if len(got) != 0 || n.Checker.Violations() != 0 {
			t.Fatalf("disabled watchdog reported %v", got)
		}
		n.Checker.SetWatchdogWindow(4096)
		n.Run(4096 + 2*1024)
		if len(got) != 1 || got[0].Check != "watchdog" {
			t.Fatalf("re-armed watchdog reported %v, want one watchdog report", got)
		}
	})
}

// TestFinalCreditBounds: Final's terminal audit reports a credit balance
// above capacity on a node's uplink and on a switch port, naming which.
// An idle fabric keeps every pool at capacity, so one spurious 1 B refund
// is enough on either.
func TestFinalCreditBounds(t *testing.T) {
	for _, c := range []struct {
		name   string
		refund func(*network.Network)
		want   string
	}{
		{"node uplink", func(n *network.Network) { n.Nodes[3].CreditPool().Give(0, 1) }, "node 3 uplink"},
		{"switch port", func(n *network.Network) { n.SwitchByDevice(topo.Config1SwitchA).CreditPoolAt(3).Give(0, 1) }, "swA p3"},
	} {
		t.Run(c.name, func(t *testing.T) {
			n, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			n.Run(100)
			if err := n.Checker.Final(); err != nil {
				t.Fatalf("clean fabric: %v", err)
			}
			c.refund(n)
			err = n.Checker.Final()
			var v *invariant.Violation
			if !errors.As(err, &v) || v.Check != "credit-bounds" || !strings.Contains(v.Detail, c.want) {
				t.Fatalf("Final = %v, want a credit-bounds violation naming %s", err, c.want)
			}
			if n.Checker.Violations() != 1 {
				t.Errorf("%d violations counted, want 1", n.Checker.Violations())
			}
		})
	}
}
