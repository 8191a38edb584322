package invariant

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
)

// Snapshot renders the full diagnostic state of the audited network:
// the conservation ledger, every abnormal or loaded link, per-port
// occupancy with blocked arbitration requests, input CAM lines, and
// per-node injection state (AdVOQ fill, CCT indices, pauses). It is
// attached to every Violation and is what a deadlocked run prints
// instead of a bare timeout.
func (c *Checker) Snapshot(now sim.Cycle) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== invariant snapshot @ cycle %d ===\n", now)

	fmt.Fprintf(&b, "ledger: pool out=%dB buffered=%dB\n", c.cfg.Pool.BytesOut(), c.buffered())

	for _, h := range c.cfg.Halves {
		flyP, flyB := h.InFlight()
		dropP, dropB := h.Dropped()
		if !h.Down() && h.BytesPerCycle() == h.NominalBPC() && flyP == 0 && dropP == 0 {
			continue
		}
		state := "up"
		if h.Down() {
			state = "DOWN"
		}
		fmt.Fprintf(&b, "link %s: %s bpc=%d/%d in-flight=%dp/%dB dropped=%dp/%dB\n",
			h.Name(), state, h.BytesPerCycle(), h.NominalBPC(), flyP, flyB, dropP, dropB)
	}

	for _, sw := range c.cfg.Switches {
		if sw.BufferedBytes() == 0 && now >= sw.StalledUntil() {
			continue
		}
		fmt.Fprintf(&b, "switch %s (dev %d): buffered=%dB\n", sw.Name(), sw.ID(), sw.BufferedBytes())
		for _, line := range sw.DescribeBlocked(now) {
			fmt.Fprintf(&b, "  %s\n", line)
		}
		for i := 0; i < sw.NumPorts(); i++ {
			if iso, ok := sw.InputDisc(i).(*core.IsolationUnit); ok && iso.ActiveLines() > 0 {
				fmt.Fprintf(&b, "  %s p%d CAM: %s\n", sw.Name(), i, describeCAM(iso))
			}
		}
	}

	for _, g := range c.Sources {
		fmt.Fprintf(&b, "%s\n", g.DescribeState(now))
	}
	for _, nd := range c.cfg.Nodes {
		if nd.BufferedBytes() == 0 && now >= nd.PausedUntil() && nd.ParkedSources() == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s\n", nd.DescribeState(now))
		if iso, ok := nd.Disc().(*core.IsolationUnit); ok && iso.ActiveLines() > 0 {
			fmt.Fprintf(&b, "  node%d IA CAM: %s\n", nd.ID(), describeCAM(iso))
		}
	}
	return b.String()
}

// describeCAM renders every allocated line of an isolation unit.
func describeCAM(iso *core.IsolationUnit) string {
	var parts []string
	for i := 0; i < iso.QueueCount()-1; i++ { // the NumCFQs lines: queue 0 is the NFQ
		line, ok := iso.LineInfo(i)
		if !ok {
			continue
		}
		flags := ""
		if line.Root {
			flags += " root"
		}
		if line.Stopped {
			flags += " STOPPED"
		}
		parts = append(parts, fmt.Sprintf("line%d out%d dest=%d bytes=%d lastActive=%d%s",
			i, line.Out, line.Dest, iso.CFQBytes(i), line.LastActive, flags))
	}
	if len(parts) == 0 {
		return "(none)"
	}
	return strings.Join(parts, "; ")
}
