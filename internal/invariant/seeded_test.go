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

// TestSeededViolations breaks every invariant once, on purpose, on a
// Config #1 network under CCFIT with a hot spot onto node 4 (sources 1,
// 2, 5) and a victim flow 0->3, and requires the right check to fire
// with a snapshot that names what broke. The two checks the terminal
// audit repeats are seeded after the run's last periodic audit (every
// 1024 cycles): a plain Run lets that through, RunAudited reports it.
func TestSeededViolations(t *testing.T) {
	const lastAudit = 11 * 1024
	stalled := 8 // switch B's device id: every hot flow crosses it
	for _, c := range []struct {
		name     string
		check    string
		names    []string // what Detail + Snapshot must mention
		duration sim.Cycle
		tune     func(*core.Params)
		seed     func(*testing.T, *network.Network)
		terminal bool
	}{
		{
			name: "a packet minted and lost", check: "conservation", names: []string{"ledger: pool out=2048B buffered=0B", "off by +2048B"},
			duration: lastAudit + 512, terminal: true,
			seed: func(_ *testing.T, n *network.Network) {
				n.Eng.At(lastAudit+100, func() { n.NewPacket(0, 3, 99) }) // out of the pool, never offered
			},
		},
		{
			name: "a spurious credit return", check: "credit-bounds", names: []string{"node 3 uplink"},
			duration: lastAudit + 512, terminal: true,
			seed: func(_ *testing.T, n *network.Network) {
				// Node 3 only receives: its uplink pool sits at capacity.
				n.Eng.At(lastAudit+100, func() { n.Nodes[3].CreditPool().Give(0, 1) })
			},
		},
		{
			// A hold-down that never expires is a deallocation that never
			// happens: the trees' lines outlive the drained fabric.
			name: "CAM lines never released", check: "cam-leak", names: []string{"CAM line(s) after drain"},
			duration: sim.CyclesFromMS(1),
			tune:     func(p *core.Params) { p.HoldDown = 1 << 40 },
		},
		{
			// Nodes blocked on credits and sources parked behind them sleep
			// until an event: the snapshot says so, not sim.Never's digits.
			name: "a wedged switch", check: "watchdog",
			names:    []string{"switch swB", "node1: [asleep until an event]", "next=never"},
			duration: sim.CyclesFromMS(1),
			seed: func(t *testing.T, n *network.Network) {
				n.Checker.SetWatchdogWindow(4096)
				script := &fault.Script{Name: "wedge", Events: []fault.Event{{Kind: fault.SwitchStall, At: 2000, Switch: &stalled}}}
				if _, err := n.InjectFaults(script); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// A source's wake-up is lost (the nodes' room hook goes
			// nowhere): the AdVOQs drain, nothing is buffered, and the
			// sources stay parked on queues that have room. The victim's
			// AdVOQ only ever fills behind a pause.
			name: "a source nobody wakes", check: "watchdog", names: []string{"flow1(1->4)@", "next=never"},
			duration: sim.CyclesFromMS(1),
			seed: func(_ *testing.T, n *network.Network) {
				n.Checker.SetWatchdogWindow(2048)
				for _, nd := range n.Nodes {
					nd.SetRoomHook(func(int, int) {})
				}
				n.Nodes[0].Pause(1500)
			},
		},
	} {
		t.Run(c.check, func(t *testing.T) {
			build := func(onViolation func(*invariant.Violation)) *network.Network {
				p := core.PresetCCFIT()
				if c.tune != nil {
					c.tune(&p)
				}
				n, err := network.Build(topo.Config1(), p, network.Options{Seed: 1, OnViolation: onViolation})
				if err != nil {
					t.Fatal(err)
				}
				end := sim.CyclesFromMS(0.25)
				var flows []traffic.Flow
				for id, f := range [][2]int{{0, 3}, {1, 4}, {2, 4}, {5, 4}} {
					flows = append(flows, traffic.Flow{ID: id, Src: f[0], Dst: f[1], End: end, Rate: 1})
				}
				if err := n.AddFlows(flows); err != nil {
					t.Fatal(err)
				}
				if c.seed != nil {
					c.seed(t, n)
				}
				return n
			}

			err := build(nil).RunAudited(c.duration)
			var v *invariant.Violation
			if !errors.As(err, &v) {
				t.Fatalf("RunAudited returned %v, want a %s violation", err, c.check)
			}
			t.Log(v)
			if v.Check != c.check {
				t.Fatalf("check %q fired (%v), want %q", v.Check, v, c.check)
			}
			if !strings.HasPrefix(v.Snapshot, "=== invariant snapshot") {
				t.Errorf("no snapshot:\n%s\n%s", v.Detail, v.Snapshot)
			}
			for _, name := range c.names {
				if !strings.Contains(v.Detail+"\n"+v.Snapshot, name) {
					t.Errorf("diagnostic does not name %q:\n%s\n%s", name, v.Detail, v.Snapshot)
				}
			}

			// The same breakage under a plain Run: the windowed checks
			// reach OnViolation mid-run, the terminal ones nobody.
			var seen []string
			plain := build(func(v *invariant.Violation) { seen = append(seen, v.Check) })
			plain.Run(c.duration)
			if c.terminal {
				if len(seen) != 0 || plain.Checker.Violations() != 0 {
					t.Errorf("plain Run already reported %v: the case does not exercise the terminal audit", seen)
				}
			} else if len(seen) == 0 || seen[0] != c.check {
				t.Errorf("plain Run reported %v through OnViolation, want %s first", seen, c.check)
			}
		})
	}
}
