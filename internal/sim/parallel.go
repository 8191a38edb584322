// Parallel drives a group of shard engines in lockstep windows from
// worker goroutines. This file is the one vetted exception to the
// "no goroutines in simulation packages" determinism rule, justified
// as follows:
//
//   - Within a window every shard engine is run by exactly one worker:
//     workers take shards off a compare-and-swap ticket, so a shard is
//     claimed once, and the only cross-shard channel is the Mailbox,
//     written during a window by its owning side and drained between
//     windows by the coordinator alone.
//   - The barrier is a full synchronization point built from atomics:
//     the coordinator's plain writes (shard order, drained mailboxes,
//     the engines it ran) precede its ticket store, a worker's claim
//     reads that store, the worker's writes precede its done increment,
//     and the coordinator reads the full done count before it touches
//     anything again. Every window boundary therefore has a total
//     happens-before order: shard writes < barrier reads/drains < next
//     window's reads.
//   - Outcome determinism does not depend on goroutine scheduling: each
//     engine executes exactly the cycles [T, T') regardless of which
//     worker runs it or when, and mailbox drains run on one goroutine
//     in a caller-fixed order, so every engine's (at, seq) event order
//     is a pure function of the simulation state. The same holds for
//     the window ends T': they are computed by the coordinator from
//     engine state at the barrier.
//
// The exception is enforced, not waived: this file is declared a
// bridge file (internal/lint/scope.go, bridgeScope), which lifts only
// the determinism rule's go-statement ban and puts the targeted
// partition-safety rule in its place — workers must be join-scoped
// closures that capture nothing but sync plumbing (channels,
// WaitGroups, sync/atomic values), receive their engines as spawn-time
// parameters and never drain mailboxes. Every other determinism check
// still applies here in full.
package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// An idle worker polls the ticket spinPolls times back to back — a
// few tens of microseconds, which outlasts the barrier between two
// windows of a busy run, so the worker is there when the next window
// opens — then yields the processor between polls so that a
// host with fewer free cores than workers — GOMAXPROCS=1 included —
// keeps the goroutines that have work running, and after yieldPolls of
// those it parks until the coordinator wakes it. The coordinator waits
// for the last shards the same way but never parks: it is waiting for
// goroutines that are running.
const (
	spinPolls  = 1 << 12
	yieldPolls = 1 << 12
)

// The ticket packs the window generation (high half) and the next
// unclaimed slot of the shard order (low half) into one word, so a
// claim is a single compare-and-swap and a worker that stalls across a
// window change cannot take a slot of the new window with a value it
// read in the old one. stopTicket tells the workers to exit.
const (
	slotBits   = 32
	stopTicket = ^uint64(0)
)

// claimSlot takes the next unclaimed slot of the open window. It
// returns ok=false with the ticket value it saw when every one of the n
// slots is taken (or the workers were told to stop).
func claimSlot(ticket *atomic.Uint64, n int) (slot int, seen uint64, ok bool) {
	for {
		t := ticket.Load()
		slot = int(uint32(t))
		if t == stopTicket || slot >= n {
			return 0, t, false
		}
		if ticket.CompareAndSwap(t, t+1) {
			return slot, t, true
		}
	}
}

// shardFault is a panic raised while a shard advanced.
type shardFault struct {
	shard int
	value any
}

// runShard advances one shard to target. A panic is captured instead
// of unwinding the worker: the window still has to be joined, and the
// coordinator re-raises it on the goroutine that called Run, where the
// caller's own recovery (the runner's per-job quarantine) can see it.
// When several shards panic in one window the lowest shard index wins,
// so the reported failure does not depend on scheduling either.
func runShard(engines []*Engine, shard int, target Cycle, fault *atomic.Pointer[shardFault]) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		f := &shardFault{shard: shard, value: r}
		for {
			cur := fault.Load()
			if cur != nil && cur.shard <= shard {
				return
			}
			if fault.CompareAndSwap(cur, f) {
				return
			}
		}
	}()
	engines[shard].Run(target)
}

// Parallel advances a group of shard engines in lockstep windows,
// separated by a deterministic barrier. The window width must not
// exceed the conservative lookahead of the partition (the minimum
// propagation delay over cut links): within one window no shard can be
// affected by another's events, so the shards may tick concurrently.
// There may be more shards than workers; the workers then pull shards
// until the window is done, heaviest first.
type Parallel struct {
	engines []*Engine
	workers int
	window  Cycle
	// barrier runs on the coordinator after every window with all
	// shards parked; the network installs mailbox draining plus the
	// periodic invariant audit.
	barrier func(now Cycle)

	// order lists the shards heaviest first by the work each did in the
	// previous window (Engine.Work deltas — deterministic, so the order
	// is too). The coordinator rewrites it between windows.
	order    []int
	lastWork []uint64
	load     []uint64

	stats ParallelStats
}

// ParallelStats counts what the coordinator did over the Parallel's
// lifetime. All of it is a pure function of the simulation.
type ParallelStats struct {
	// Windows is the number of lockstep windows run (one barrier each).
	Windows int64
	// Skipped is the number of window-width rendezvous the quiescent
	// skip elided: a window stretched over k widths counts k-1.
	Skipped int64
}

// NewParallel builds a coordinator over engines, driven by `workers`
// goroutines (the caller of Run included; capped at the engine count)
// in windows of the given width. All engines must share the same
// current cycle. barrier may be nil.
func NewParallel(engines []*Engine, workers int, window Cycle, barrier func(now Cycle)) *Parallel {
	if len(engines) == 0 {
		panic("sim: parallel needs at least one engine")
	}
	if workers < 1 {
		panic(fmt.Sprintf("sim: %d workers, need >= 1", workers))
	}
	if window < 1 {
		panic(fmt.Sprintf("sim: window %d, need >= 1", window))
	}
	now := engines[0].Now()
	for _, e := range engines[1:] {
		if e.Now() != now {
			panic(fmt.Sprintf("sim: engines out of step (%d vs %d)", e.Now(), now))
		}
	}
	p := &Parallel{
		engines:  engines,
		workers:  min(workers, len(engines)),
		window:   window,
		barrier:  barrier,
		order:    make([]int, len(engines)),
		lastWork: make([]uint64, len(engines)),
		load:     make([]uint64, len(engines)),
	}
	for i, e := range engines {
		p.order[i] = i
		p.lastWork[i] = e.Work()
	}
	return p
}

// Stats returns the window counts so far.
func (p *Parallel) Stats() ParallelStats { return p.stats }

// Now returns the common current cycle.
func (p *Parallel) Now() Cycle { return p.engines[0].Now() }

// RunFor advances every shard by d cycles.
func (p *Parallel) RunFor(d Cycle) { p.Run(p.Now() + d) }

// Run advances every shard until (and excluding) cycle until, window
// by window with a barrier after each. The calling goroutine is the
// coordinator and also worker 0; the other workers are spawned per
// call and torn down before returning (also when a shard or the
// barrier panics), so no goroutine outlives the run.
//
// A window normally ends one window width W after it started. When the
// barrier leaves every shard quiescent — no awake ticker anywhere —
// with the earliest pending event at cycle H, nothing at all happens
// before H, so nothing can be posted before H and nothing posted can
// be due before H + W: the next window ends there instead of meeting
// every W cycles through idle time.
func (p *Parallel) Run(until Cycle) {
	now := p.Now()
	if until <= now {
		return
	}
	n := len(p.engines)
	var (
		exit     sync.WaitGroup                   // worker teardown
		ticket   atomic.Uint64                    // generation<<slotBits | next unclaimed slot
		target   atomic.Int64                     // end of the open window
		done     atomic.Int32                     // shards advanced in the open window
		sleepers atomic.Int32                     // workers parked (or about to park) on wake
		fault    atomic.Pointer[shardFault]       // first panic of the open window
		wake     = make(chan struct{}, p.workers) // one token per sleeper seen at a window's opening
	)
	ticket.Store(uint64(n)) // generation 0 with every slot taken: nothing to claim yet
	for w := 1; w < p.workers; w++ {
		exit.Add(1)
		go func(engines []*Engine, order []int) {
			defer exit.Done()
			for idle := 0; ; {
				slot, seen, ok := claimSlot(&ticket, len(order))
				if ok {
					idle = 0
					runShard(engines, order[slot], Cycle(target.Load()), &fault)
					done.Add(1)
					continue
				}
				if seen == stopTicket {
					return
				}
				idle++
				switch {
				case idle <= spinPolls:
				case idle <= spinPolls+yieldPolls:
					runtime.Gosched()
				default:
					// Park. Announcing first and re-reading the ticket
					// after closes the window in which the coordinator
					// could open the next generation unseen: either this
					// load sees the new ticket or the coordinator's
					// sleeper count sees this worker. A stale token only
					// costs one more trip round this loop, and a missed
					// one only this worker's help for one window — the
					// coordinator runs whatever nobody claims.
					sleepers.Add(1)
					if ticket.Load() == seen {
						<-wake
					}
					sleepers.Add(-1)
					idle = spinPolls
				}
			}
		}(p.engines, p.order)
	}
	defer func() {
		ticket.Store(stopTicket)
		close(wake)
		exit.Wait()
	}()

	end := p.nextEnd(now, until)
	for gen := uint64(1); now < until; gen++ {
		target.Store(int64(end))
		done.Store(0)
		ticket.Store(gen << slotBits)
		for s := sleepers.Load(); s > 0; s-- {
			select {
			case wake <- struct{}{}:
			default: // tokens of earlier windows are still unread
			}
		}
		for {
			slot, _, ok := claimSlot(&ticket, n)
			if !ok {
				break
			}
			runShard(p.engines, p.order[slot], end, &fault)
			done.Add(1)
		}
		for polls := 0; done.Load() != int32(n); polls++ {
			if polls >= spinPolls {
				runtime.Gosched()
			}
		}
		if f := fault.Load(); f != nil {
			panic(f.value)
		}
		if p.barrier != nil {
			p.barrier(end)
		}
		p.stats.Windows++
		p.rank()
		now, end = end, p.nextEnd(end, until)
	}
}

// rank re-sorts the shard order by the work each engine did in the
// window just finished, heaviest first, so the long shards start early
// and the short ones fill in behind them. Insertion sort: the order
// barely changes from one window to the next, and ties keep their
// previous relative position.
func (p *Parallel) rank() {
	for i, e := range p.engines {
		w := e.Work()
		p.load[i], p.lastWork[i] = w-p.lastWork[i], w
	}
	for i := 1; i < len(p.order); i++ {
		for j := i; j > 0 && p.load[p.order[j]] > p.load[p.order[j-1]]; j-- {
			p.order[j], p.order[j-1] = p.order[j-1], p.order[j]
		}
	}
}

// nextEnd returns where the window that starts at now ends: one window
// width on, or — when every shard is quiescent — one width past the
// earliest pending event (see Run), and never past until.
func (p *Parallel) nextEnd(now, until Cycle) Cycle {
	end := until
	for _, e := range p.engines {
		if e.ActiveTickers() > 0 {
			return min(now+p.window, until)
		}
		if at, ok := e.NextEvent(); ok && at+p.window < end {
			end = at + p.window
		}
	}
	if end <= now+p.window {
		return min(now+p.window, until)
	}
	p.stats.Skipped += int64((end-now+p.window-1)/p.window) - 1
	return end
}
