// Package invariant is the simulator's always-on runtime checker: a
// low-frequency device-phase ticker that audits global correctness
// properties no single component can see — packet conservation across
// the whole fabric, credit balances bounded by receive-buffer
// capacity, CAM/CFQ lines released after congestion trees tear down,
// and a forward-progress watchdog that declares deadlock/livelock when
// traffic is buffered but nothing moves for a configurable window.
// On a violation it captures a full diagnostic snapshot (per-port
// occupancy, CAM lines, CCT state, blocked arbitration requests)
// before failing, so a wedged run explains itself instead of timing
// out silently.
//
// The checker is strictly read-only and self-pacing: it sleeps its
// ticker between checks and re-arms with a scheduled wake, so the
// engine's idle fast-forward still works and a checked run is
// cycle-identical to an unchecked one. The golden-digest tests run
// with the checker enabled to prove exactly that.
//
// Ledger accounting (bytes, sampled after every device's tick, when no
// intra-cycle transfer can be mid-flight):
//
//	out      = bytes the network's pkt.Pool has handed out and not got back
//	buffered = Σ node BufferedBytes + Σ switch BufferedBytes + Σ link in-flight
//
// and the invariant is out == buffered. Every packet is born in the
// pool (traffic generators, BECNs, Network.NewPacket) and dies back into
// it (the sink, BECN consumption, and the drop handler of a scripted
// link flap with the drop policy, the only legal drop); a packet lost,
// duplicated, released while still buffered or minted outside the pool
// breaks the equation within one check interval.
package invariant

import (
	"errors"
	"fmt"

	"repro/internal/endnode"
	"repro/internal/link"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/switchfab"
)

// Violation is a failed runtime invariant. It is both the error
// surfaced to runner jobs and the panic value raised by the default
// OnViolation, carrying the diagnostic snapshot either way.
type Violation struct {
	Cycle    sim.Cycle
	Check    string // "conservation", "credit-bounds", "cam-leak", "watchdog"
	Detail   string
	Snapshot string
}

func (v *Violation) Error() string {
	return fmt.Sprintf("invariant %s violated at cycle %d: %s", v.Check, v.Cycle, v.Detail)
}

// IsViolation reports whether err is (or wraps) an invariant
// violation — the runner's deterministic-failure test: violations are
// quarantined, never retried, because the same seed and script will
// fail the same way every time.
func IsViolation(err error) bool {
	var v *Violation
	return errors.As(err, &v)
}

// Config wires a checker to the components it audits.
type Config struct {
	Nodes    []*endnode.Node
	Switches []*switchfab.Switch
	Halves   []*link.Half
	// Pool is the network's packet free-list, the ledger's out side
	// (nil audits a pool with nothing out).
	Pool *pkt.Pool

	// CheckEvery is the audit interval in cycles (default 1024). The
	// checker wakes, audits, and sleeps again, so the cost is one
	// component walk per interval regardless of network activity.
	CheckEvery sim.Cycle
	// OnViolation consumes violations (tests, runner). nil panics with
	// the *Violation — a correctness bug must never scroll past.
	OnViolation func(*Violation)
}

// Checker audits the invariants. Build one per network via Attach.
type Checker struct {
	eng *sim.Engine
	cfg Config
	// Sources are described in the snapshot: network.AddFlows' generators.
	Sources []interface{ DescribeState(sim.Cycle) string }

	watchdog     sim.Cycle // see SetWatchdogWindow
	lastProgress int64     // watchdog: progress counter at last check
	stalledSince sim.Cycle // first check cycle with no progress (-1 = moving)
	drainedSince sim.Cycle // first check cycle with empty fabric (-1 = busy)
	fired        bool      // watchdog fired (report deadlock once)

	violations int
}

// Attach registers an always-on checker on eng's device phase. Call
// after every component is built so the audit ticks after theirs.
func Attach(eng *sim.Engine, cfg Config) *Checker {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1024
	}
	c := &Checker{eng: eng, cfg: cfg, watchdog: defaultWatchdog, stalledSince: -1, drainedSince: -1}
	eng.AddTicker(sim.PhaseDevice, c.tick)
	return c
}

// defaultWatchdog is the watchdog window of a new checker: 262 144
// cycles ≈ 6.7 ms of simulated time.
const defaultWatchdog sim.Cycle = 262_144

// leakWindow is how long the fabric may sit fully drained with CAM/CFQ
// lines still allocated before they are declared leaked: comfortably
// past the hold-down.
const leakWindow sim.Cycle = 8192

// SetWatchdogWindow sets how long buffered traffic may sit with zero
// global progress before the watchdog declares deadlock (runner jobs
// tighten or disable it per job): w == 0 restores the default, w < 0
// disables.
func (c *Checker) SetWatchdogWindow(w sim.Cycle) {
	if w == 0 {
		w = defaultWatchdog
	}
	c.watchdog = w
}

// Violations returns how many violations have been reported.
func (c *Checker) Violations() int { return c.violations }

// tick is the self-pacing audit: check, then sleep until the next one.
// Sleeping between checks keeps the engine's idle fast-forward intact —
// the wake event is the only trace the checker leaves on the schedule.
func (c *Checker) tick(now sim.Cycle) sim.Cycle {
	c.check(now)
	return now + c.cfg.CheckEvery
}

// buffered sums the bytes the fabric holds: the ledger side the pool's
// bytes out must equal.
func (c *Checker) buffered() (b int) {
	for _, nd := range c.cfg.Nodes {
		b += nd.BufferedBytes()
	}
	for _, sw := range c.cfg.Switches {
		b += sw.BufferedBytes()
	}
	for _, h := range c.cfg.Halves {
		_, fly := h.InFlight()
		b += fly
	}
	return b
}

// progress is the watchdog's movement counter: any packet operation
// anywhere increments it.
func (c *Checker) progress() int64 {
	var p int64
	for _, nd := range c.cfg.Nodes {
		st := nd.Stats()
		p += int64(st.Offered + st.Sent + st.Delivered + st.BECNsSent + st.BECNsReceived)
	}
	for _, sw := range c.cfg.Switches {
		p += int64(sw.Stats().Forwarded)
	}
	return p
}

// audit runs the two checks the periodic and the terminal audit share,
// packet conservation and credit bounds, and returns the first
// violation (nil if both hold) with the fabric's buffered bytes.
func (c *Checker) audit(now sim.Cycle) (*Violation, int) {
	// 1. Packet conservation.
	out, buffered := c.cfg.Pool.BytesOut(), c.buffered()
	if out != buffered {
		return c.violation(now, "conservation", fmt.Sprintf(
			"pool out %dB != buffered %dB (off by %+dB)", out, buffered, out-buffered)), buffered
	}

	// 2. Credit balances bounded by receive capacity.
	for _, nd := range c.cfg.Nodes {
		if cp := nd.CreditPool(); cp != nil {
			if err := cp.CheckBounds(); err != nil {
				return c.violation(now, "credit-bounds", fmt.Sprintf("node %d uplink: %v", nd.ID(), err)), buffered
			}
		}
	}
	for _, sw := range c.cfg.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			if cp := sw.CreditPoolAt(i); cp != nil {
				if err := cp.CheckBounds(); err != nil {
					return c.violation(now, "credit-bounds", fmt.Sprintf("%s p%d: %v", sw.Name(), i, err)), buffered
				}
			}
		}
	}
	return nil, buffered
}

// check audits every invariant once: the shared audit, then the two
// windowed checks that need a running clock.
func (c *Checker) check(now sim.Cycle) {
	v, buffered := c.audit(now)
	if v != nil {
		c.fail(v)
		return
	}

	// 3. CAM/CFQ leaks: once the fabric has been fully drained for
	// longer than any legal hold-down, every input-side CAM line must
	// have been deallocated. (Output CAMs are excluded: a scripted fake
	// CFQAlloc legitimately plants lines there that nothing will ever
	// tear down, indistinguishable from real ones by design.)
	if buffered == 0 {
		if c.drainedSince < 0 {
			c.drainedSince = now
		} else if now-c.drainedSince >= leakWindow {
			if leak := c.findCAMLeak(); leak != "" {
				c.fail(c.violation(now, "cam-leak", leak))
				return
			}
		}
	} else {
		c.drainedSince = -1
	}

	// 4. Forward progress: buffered traffic with zero movement across
	// a full watchdog window is a deadlock (or a total livelock —
	// indistinguishable from outside, equally fatal). So is a source left
	// parked over a drained fabric: the wake-up it waits for was lost.
	if c.watchdog > 0 && !c.fired {
		p, parked := c.progress(), 0
		for _, nd := range c.cfg.Nodes {
			parked += nd.ParkedSources()
		}
		switch {
		case buffered+parked == 0 || p != c.lastProgress:
			c.stalledSince = -1
		case c.stalledSince < 0:
			c.stalledSince = now
		case now-c.stalledSince >= c.watchdog:
			c.fired = true
			c.fail(c.violation(now, "watchdog", fmt.Sprintf(
				"no packet movement for %d cycles with %dB buffered and %d sources parked (deadlock or livelock)",
				now-c.stalledSince, buffered, parked)))
		}
		c.lastProgress = p
	}
}

// findCAMLeak names an allocated input-side CAM line, or "" if clean.
func (c *Checker) findCAMLeak() string {
	for _, sw := range c.cfg.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			if iso, ok := sw.InputDisc(i).(camHolder); ok && iso.ActiveLines() > 0 {
				return fmt.Sprintf("%s p%d holds %d CAM line(s) after drain + hold-down", sw.Name(), i, iso.ActiveLines())
			}
		}
	}
	for _, nd := range c.cfg.Nodes {
		if iso, ok := nd.Disc().(camHolder); ok && iso.ActiveLines() > 0 {
			return fmt.Sprintf("node %d IA holds %d CAM line(s) after drain + hold-down", nd.ID(), iso.ActiveLines())
		}
	}
	return ""
}

// camHolder is the slice of IsolationUnit the leak check needs.
type camHolder interface{ ActiveLines() int }

// violation counts a failed check and captures its snapshot.
func (c *Checker) violation(now sim.Cycle, check, detail string) *Violation {
	c.violations++
	return &Violation{Cycle: now, Check: check, Detail: detail, Snapshot: c.Snapshot(now)}
}

// fail hands a violation to the configured consumer (panicking by
// default).
func (c *Checker) fail(v *Violation) {
	if c.cfg.OnViolation != nil {
		c.cfg.OnViolation(v)
		return
	}
	panic(v)
}

// Final audits the terminal state (conservation and credit bounds;
// leak and watchdog are windowed checks that need a running clock) and
// returns the first violation as an error, without going through
// OnViolation. The runner calls it after every job so corruption in
// the last check interval cannot slip out.
func (c *Checker) Final() error {
	if v, _ := c.audit(c.eng.Now()); v != nil {
		return v
	}
	return nil
}
