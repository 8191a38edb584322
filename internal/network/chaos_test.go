package network

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// TestChaosControlMessages injects malformed and stale congestion
// protocol messages (bogus CFQ indices, allocations for random
// destinations, spurious Stop/Go/Dealloc) into every switch while a
// congested CCFIT workload runs, via the scripted ctl-noise fault
// injector. The fabric must neither panic nor lose packets, and must
// still tear all resources down afterwards — the robustness a switch
// needs against a misbehaving neighbor. The always-on invariant
// checker audits the whole run.
//
// Credits are deliberately NOT fuzzed: credit messages are generated
// by the local hardware's own accounting (not a protocol peer), and
// injecting fake credit would legitimately overflow buffers.
func TestChaosControlMessages(t *testing.T) {
	cases := []struct {
		name  string
		build func() (*Network, error)
		nEnd  int
		end   int64     // flow + noise end, cycles
		run   sim.Cycle // total run length (drain included)
	}{
		{
			name: "config1",
			build: func() (*Network, error) {
				return Build(topo.Config1(), core.PresetCCFIT(), Options{Seed: 23})
			},
			nEnd: 7, end: 150_000, run: 500_000,
		},
		{
			name: "config2",
			build: func() (*Network, error) {
				f := topo.Config2()
				return Build(f.Topology, core.PresetCCFIT(), Options{Seed: 23, TieBreak: f.DETTieBreak})
			},
			nEnd: 8, end: 150_000, run: 500_000,
		},
		{
			name: "config3",
			build: func() (*Network, error) {
				f := topo.Config3()
				return Build(f.Topology, core.PresetCCFIT(), Options{Seed: 23, TieBreak: f.DETTieBreak})
			},
			nEnd: 64, end: 50_000, run: 300_000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			// A hot spot (three sources onto one destination) plus one
			// victim flow sharing the tree — congestion management is
			// active while the noise hits.
			hot := 4 % tc.nEnd
			addFlows(t, n, []traffic.Flow{
				{ID: 0, Src: 0 % tc.nEnd, Dst: 3 % tc.nEnd, Start: 0, End: sim.Cycle(tc.end), Rate: 1.0},
				{ID: 1, Src: 1 % tc.nEnd, Dst: hot, Start: 0, End: sim.Cycle(tc.end), Rate: 1.0},
				{ID: 2, Src: 2 % tc.nEnd, Dst: hot, Start: 0, End: sim.Cycle(tc.end), Rate: 1.0},
				{ID: 5, Src: 5 % tc.nEnd, Dst: hot, Start: 0, End: sim.Cycle(tc.end), Rate: 1.0},
			})

			// The scripted generalization of the old hand-rolled chaos
			// hook: every 97 cycles one random switch port receives one
			// random (often invalid) protocol message.
			in, err := n.InjectFaults(&fault.Script{
				Name: "ctl-noise",
				Seed: 99,
				Events: []fault.Event{
					{Kind: fault.CtlNoise, At: 0, Duration: tc.end, Params: fault.Params{Period: 97}},
				},
			})
			if err != nil {
				t.Fatal(err)
			}

			n.Run(tc.run)
			if in.Stats().NoiseSent == 0 {
				t.Fatal("injector sent no noise")
			}
			op, ob := n.TotalOffered()
			dp, db := n.TotalDelivered()
			if op != dp || ob != db {
				t.Fatalf("chaos broke losslessness: offered %d/%d delivered %d/%d", op, ob, dp, db)
			}
			// Teardown completeness despite the garbage: the chaos can
			// leave *output* CAM lines allocated (a fake Alloc is
			// indistinguishable from a real one and its fake owner never
			// deallocates), but input CFQs and their RAM must drain, and
			// nothing may stay throttled or congested forever.
			for _, sw := range n.Switches {
				for i := 0; i < sw.NumPorts(); i++ {
					if iso, ok := sw.InputDisc(i).(*core.IsolationUnit); ok {
						if iso.UsedBytes() != 0 {
							t.Fatalf("%s port %d holds %d bytes after drain", sw.Name(), i, iso.UsedBytes())
						}
					}
				}
			}
			for _, nd := range n.Nodes {
				if th := nd.Throttler(); th != nil {
					for d := 0; d < tc.nEnd; d++ {
						if th.CCTI(d) != 0 {
							t.Fatalf("node %d stuck throttled towards %d", nd.ID(), d)
						}
					}
				}
			}
			if dp == 0 {
				t.Fatal("nothing delivered under chaos")
			}
			if err := n.Checker.Final(); err != nil {
				t.Fatalf("post-run invariant audit: %v", err)
			}
		})
	}
}

// TestChaosDirectCFQTags fuzzes the direct CFQ-to-CFQ delivery tag:
// packets injected straight into switch ports with random (mostly
// invalid) CFQ hints must all still be delivered in order.
//
// Invariants are disabled here by construction: dropping a packet
// onto a switch port bypasses the upstream credit Take, so the
// switch's forward path returns credit that was never claimed and the
// upstream pool's balance legitimately exceeds its capacity bound —
// exactly what the credit-bounds check exists to catch.
func TestChaosDirectCFQTags(t *testing.T) {
	p := core.PresetCCFIT()
	n, err := Build(topo.Config1(), p, Options{Seed: 29, DisableInvariants: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sw := n.SwitchByDevice(topo.Config1SwitchB)
	// Bypass the normal ingress: drop packets onto switch B's port 4
	// with arbitrary cfq hints, as a buggy upstream would.
	injected := 0
	n.Eng.AddTicker(sim.PhaseInject, func(now sim.Cycle) {
		if now%64 != 0 || now > 50_000 {
			return
		}
		pk := n.NewPacket(9, 3, injected)
		sw.PacketReceiver(4).ReceivePacket(pk, rng.Intn(5)-2)
		injected++
	})
	n.Run(200_000)
	if got := n.Nodes[3].Stats().Delivered; got != injected {
		t.Fatalf("delivered %d of %d fuzz-tagged packets", got, injected)
	}
}
