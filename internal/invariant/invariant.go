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
//	created  = Σ node OfferedBytes + Σ node BECNsSent·BECNSize + externally minted
//	consumed = Σ node DeliveredBytes + Σ node BECNsReceived·BECNSize + Σ link dropped
//	buffered = Σ node BufferedBytes + Σ switch BufferedBytes + Σ link in-flight
//
// and the invariant is created == consumed + buffered. The only legal
// drop is a scripted link-flap with the drop policy (package fault);
// anything else that loses or duplicates a packet breaks the equation
// within one check interval.
//
//lint:file-ignore hotpath-alloc checker self-paces (runs every CheckEvery cycles, sleeping in between) and formats diagnostics only on violation; it is not on the per-cycle hot path
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

	// CheckEvery is the audit interval in cycles (default 1024). The
	// checker wakes, audits, and sleeps again, so the cost is one
	// component walk per interval regardless of network activity.
	CheckEvery sim.Cycle
	// WatchdogWindow is how long buffered traffic may sit with zero
	// global progress before the watchdog declares deadlock (default
	// 262144 cycles ≈ 0.67 ms of simulated time; <0 disables).
	WatchdogWindow sim.Cycle
	// LeakWindow is how long the fabric may sit fully drained with
	// CAM/CFQ lines still allocated before they are declared leaked
	// (default 8192 cycles, comfortably past the hold-down).
	LeakWindow sim.Cycle
	// OnViolation consumes violations (tests, runner). nil panics with
	// the *Violation — a correctness bug must never scroll past.
	OnViolation func(*Violation)
}

// Checker audits the invariants. Build one per network via Attach.
type Checker struct {
	eng    *sim.Engine
	cfg    Config
	handle *sim.TickerHandle
	// Sources are described in the snapshot: network.AddFlows' generators.
	Sources []interface{ DescribeState(sim.Cycle) string }

	externalPkts  int
	externalBytes int

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
	if cfg.WatchdogWindow == 0 {
		cfg.WatchdogWindow = 262_144
	}
	if cfg.LeakWindow <= 0 {
		cfg.LeakWindow = 8192
	}
	c := Detached(eng, cfg)
	c.handle = eng.AddTicker(sim.PhaseDevice, c.tick)
	return c
}

// Detached builds a checker that is not registered on any tick list.
// Partitioned runs use it: a self-pacing per-engine ticker would only
// see one shard, so instead the window barrier — the one point where
// every shard is parked and cross-shard state (in-flight ledgers on cut
// links) is coherent — calls CheckAt on the whole-network checker. eng
// is the reference clock for Final (all shards share the same cycle at
// run end).
func Detached(eng *sim.Engine, cfg Config) *Checker {
	if cfg.CheckEvery <= 0 {
		cfg.CheckEvery = 1024
	}
	if cfg.WatchdogWindow == 0 {
		cfg.WatchdogWindow = 262_144
	}
	if cfg.LeakWindow <= 0 {
		cfg.LeakWindow = 8192
	}
	return &Checker{eng: eng, cfg: cfg, stalledSince: -1, drainedSince: -1}
}

// CheckAt runs one full audit at cycle now. Only detached checkers use
// it (attached ones pace themselves); the caller is responsible for
// invoking it at quiescent points, roughly every CheckEvery cycles.
func (c *Checker) CheckAt(now sim.Cycle) { c.check(now) }

// CheckEvery returns the configured audit interval, for callers pacing
// a detached checker.
func (c *Checker) CheckEvery() sim.Cycle { return c.cfg.CheckEvery }

// SetWatchdogWindow adjusts the watchdog at run time (runner jobs can
// tighten or disable it per job); w < 0 disables.
func (c *Checker) SetWatchdogWindow(w sim.Cycle) {
	if w == 0 {
		w = 262_144
	}
	c.cfg.WatchdogWindow = w
}

// ExternalInjected records a packet minted outside the traffic
// generator (tools and tests injecting by hand), keeping the
// conservation ledger honest for manual traffic.
func (c *Checker) ExternalInjected(p *pkt.Packet) {
	c.externalPkts++
	c.externalBytes += p.Size
}

// Violations returns how many violations have been reported.
func (c *Checker) Violations() int { return c.violations }

// tick is the self-pacing audit: check, sleep, re-arm. Sleeping
// between checks keeps the engine's idle fast-forward intact — the
// wake event is the only trace the checker leaves on the schedule.
func (c *Checker) tick(now sim.Cycle) {
	c.check(now)
	c.handle.SleepUntil(now + c.cfg.CheckEvery)
}

// ledger sums the conservation equation's three terms.
func (c *Checker) ledger() (created, consumed, buffered int) {
	created = c.externalBytes
	for _, nd := range c.cfg.Nodes {
		st := nd.Stats()
		created += st.OfferedBytes + st.BECNsSent*pkt.BECNSize
		consumed += st.DeliveredBytes + st.BECNsReceived*pkt.BECNSize
		buffered += nd.BufferedBytes()
	}
	for _, sw := range c.cfg.Switches {
		buffered += sw.BufferedBytes()
	}
	for _, h := range c.cfg.Halves {
		_, fly := h.InFlight()
		buffered += fly
		_, drop := h.Dropped()
		consumed += drop
	}
	return
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

// check audits every invariant once.
func (c *Checker) check(now sim.Cycle) {
	// 1. Packet conservation.
	created, consumed, buffered := c.ledger()
	if created != consumed+buffered {
		c.fail(now, "conservation", fmt.Sprintf(
			"created %dB != consumed %dB + buffered %dB (leak of %dB)",
			created, consumed, buffered, created-consumed-buffered))
		return
	}

	// 2. Credit balances bounded by receive capacity.
	for _, nd := range c.cfg.Nodes {
		if cp := nd.CreditPool(); cp != nil {
			if err := cp.CheckBounds(); err != nil {
				c.fail(now, "credit-bounds", fmt.Sprintf("node %d uplink: %v", nd.ID(), err))
				return
			}
		}
	}
	for _, sw := range c.cfg.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			if cp := sw.CreditPoolAt(i); cp != nil {
				if err := cp.CheckBounds(); err != nil {
					c.fail(now, "credit-bounds", fmt.Sprintf("%s p%d: %v", sw.Name(), i, err))
					return
				}
			}
		}
	}

	// 3. CAM/CFQ leaks: once the fabric has been fully drained for
	// longer than any legal hold-down, every input-side CAM line must
	// have been deallocated. (Output CAMs are excluded: a scripted fake
	// CFQAlloc legitimately plants lines there that nothing will ever
	// tear down, indistinguishable from real ones by design.)
	if buffered == 0 {
		if c.drainedSince < 0 {
			c.drainedSince = now
		} else if now-c.drainedSince >= c.cfg.LeakWindow {
			if leak := c.findCAMLeak(); leak != "" {
				c.fail(now, "cam-leak", leak)
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
	if c.cfg.WatchdogWindow > 0 && !c.fired {
		p, parked := c.progress(), 0
		for _, nd := range c.cfg.Nodes {
			parked += nd.ParkedSources()
		}
		switch {
		case buffered+parked == 0 || p != c.lastProgress:
			c.stalledSince = -1
		case c.stalledSince < 0:
			c.stalledSince = now
		case now-c.stalledSince >= c.cfg.WatchdogWindow:
			c.fired = true
			c.fail(now, "watchdog", fmt.Sprintf(
				"no packet movement for %d cycles with %dB buffered and %d sources parked (deadlock or livelock)",
				now-c.stalledSince, buffered, parked))
		}
		c.lastProgress = p
	}
}

// camLeakCheck names an allocated input-side CAM line, or "" if clean.
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

// fail records a violation with its snapshot and hands it to the
// configured consumer (panicking by default).
func (c *Checker) fail(now sim.Cycle, check, detail string) {
	v := &Violation{Cycle: now, Check: check, Detail: detail, Snapshot: c.Snapshot(now)}
	c.violations++
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
	now := c.eng.Now()
	created, consumed, buffered := c.ledger()
	if created != consumed+buffered {
		c.violations++
		return &Violation{Cycle: now, Check: "conservation", Snapshot: c.Snapshot(now),
			Detail: fmt.Sprintf("created %dB != consumed %dB + buffered %dB (leak of %dB)",
				created, consumed, buffered, created-consumed-buffered)}
	}
	for _, nd := range c.cfg.Nodes {
		if cp := nd.CreditPool(); cp != nil {
			if e := cp.CheckBounds(); e != nil {
				c.violations++
				return &Violation{Cycle: now, Check: "credit-bounds", Snapshot: c.Snapshot(now),
					Detail: fmt.Sprintf("node %d uplink: %v", nd.ID(), e)}
			}
		}
	}
	for _, sw := range c.cfg.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			if cp := sw.CreditPoolAt(i); cp != nil {
				if e := cp.CheckBounds(); e != nil {
					c.violations++
					return &Violation{Cycle: now, Check: "credit-bounds", Snapshot: c.Snapshot(now),
						Detail: fmt.Sprintf("%s p%d: %v", sw.Name(), i, e)}
				}
			}
		}
	}
	return nil
}
