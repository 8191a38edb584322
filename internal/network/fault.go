package network

import (
	"fmt"

	"repro/internal/endnode"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// InjectFaults schedules a validated fault script against this
// network: every event's target is resolved to a concrete component
// (links by the device ids of their ends, switches by device id, nodes
// by endpoint id) and handed to a deterministic injector seeded from
// (run seed, script seed). Call once, before Run — all scheduling is
// front-loaded so the run itself stays replayable.
func (n *Network) InjectFaults(s *fault.Script) (*fault.Injector, error) {
	if n.injector != nil {
		return nil, fmt.Errorf("network: fault script already injected")
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("network: %w", err)
	}
	in := fault.NewInjector(n.Eng, n.Eng.Seed(), s.Seed)
	ne := n.Topo.NumEndpoints()
	for i := range s.Events {
		e := &s.Events[i]
		at, dur := e.Start(), e.Window()
		switch e.Kind {
		case fault.LinkDegrade, fault.LinkFlap, fault.CtlCorrupt, fault.CtlDuplicate, fault.CtlDelay:
			h := n.HalfByEnds(e.Link.From, e.Link.To)
			if h == nil {
				return nil, fmt.Errorf("network: event %d (%s): no link %s", i, e.Kind, e.Link)
			}
			switch e.Kind {
			case fault.LinkDegrade:
				if e.Params.BytesPerCycle > h.NominalBPC() {
					return nil, fmt.Errorf("network: event %d: degraded bandwidth %d exceeds nominal %d",
						i, e.Params.BytesPerCycle, h.NominalBPC())
				}
				in.ScheduleLinkDegrade(at, dur, h, e.Params.BytesPerCycle)
			case fault.LinkFlap:
				in.ScheduleLinkFlap(at, dur, h, e.Params.Drop)
			default:
				in.ScheduleCtlTamper(at, dur, h, e.Kind, e.Params.Prob,
					sim.Cycle(e.Params.Delay), n.Params.NumCFQs)
			}
		case fault.CtlNoise:
			targets := n.Switches
			port := -1
			if e.Switch != nil {
				sw := n.byDev[*e.Switch]
				if sw == nil {
					return nil, fmt.Errorf("network: event %d (%s): no switch with device id %d", i, e.Kind, *e.Switch)
				}
				targets = []*switchfab.Switch{sw}
				if e.Port != nil {
					if *e.Port < 0 || *e.Port >= sw.NumPorts() {
						return nil, fmt.Errorf("network: event %d (%s): switch %d has no port %d", i, e.Kind, *e.Switch, *e.Port)
					}
					port = *e.Port
				}
			}
			if len(targets) == 0 {
				return nil, fmt.Errorf("network: event %d (%s): topology has no switches", i, e.Kind)
			}
			in.ScheduleCtlNoise(at, dur, targets, port, e.Params.Period, ne, n.Params.NumCFQs)
		case fault.SwitchStall:
			sw := n.byDev[*e.Switch]
			if sw == nil {
				return nil, fmt.Errorf("network: event %d (%s): no switch with device id %d", i, e.Kind, *e.Switch)
			}
			in.ScheduleSwitchStall(at, dur, sw)
		case fault.NodePause:
			nd := n.nodeByRef(*e.Node)
			if nd == nil {
				return nil, fmt.Errorf("network: event %d (%s): no endpoint %d", i, e.Kind, *e.Node)
			}
			in.ScheduleNodePause(at, dur, nd)
		}
	}
	n.injector = in
	return in, nil
}

// FaultInjector returns the injector installed by InjectFaults (nil
// when the run is fault-free).
func (n *Network) FaultInjector() *fault.Injector { return n.injector }

// nodeByRef resolves a script's node target (an endpoint id).
func (n *Network) nodeByRef(id int) *endnode.Node {
	if id >= 0 && id < len(n.Nodes) {
		return n.Nodes[id]
	}
	return nil
}
