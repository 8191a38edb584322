package sim

// Mailbox carries values across a shard boundary in a partitioned run.
// A component owned by one engine that needs to schedule work on a
// different engine must not touch the far engine directly — two workers
// would race on the far heap, and the resulting seq numbers would
// depend on goroutine interleaving. Instead it Posts a typed record
// into a mailbox during its window, and the barrier (a single
// goroutine, with every shard parked) Drains each mailbox into the
// Pipe that delivers on the destination engine. Records are plain
// values: posting allocates nothing once the mailbox has reached its
// working size, and delivery reuses the pipe's one bound callback.
//
// Determinism: Post appends in call order, so one mailbox preserves the
// sender's program order (per-link FIFO). The barrier drains all
// mailboxes in a fixed order (the network uses dense half-id order), so
// the seq numbers assigned by the destination engine — and therefore
// the firing order of same-cycle events — are a pure function of the
// simulation state, never of the Go scheduler.
type Mailbox[T any] struct {
	dst     *Pipe[T]
	entries []mailEntry[T]
}

type mailEntry[T any] struct {
	at Cycle
	v  T
}

// NewMailbox builds a mailbox draining into dst (a pipe on the
// receiving shard's engine), with room for capHint pending records
// before the first growth.
func NewMailbox[T any](dst *Pipe[T], capHint int) *Mailbox[T] {
	if dst == nil {
		panic("sim: mailbox needs a destination pipe")
	}
	if capHint < 0 {
		capHint = 0
	}
	return &Mailbox[T]{dst: dst, entries: make([]mailEntry[T], 0, capHint)}
}

// Post records v for delivery at cycle at on the destination engine.
// Called by the owning shard's worker during its window; the
// conservative lookahead guarantees at is never in the destination's
// past by the time the barrier drains it. Like Pipe.At, successive
// posts must not decrease at.
func (m *Mailbox[T]) Post(at Cycle, v T) {
	m.entries = append(m.entries, mailEntry[T]{at: at, v: v})
}

// Drain schedules every posted record on the destination pipe in post
// order and empties the mailbox (keeping its capacity). Only the
// barrier goroutine may call this, after all shards have parked.
func (m *Mailbox[T]) Drain() {
	var zero mailEntry[T]
	for i := range m.entries {
		m.dst.At(m.entries[i].at, m.entries[i].v)
		m.entries[i] = zero // drop references for the GC
	}
	m.entries = m.entries[:0]
}

// Len reports the number of undelivered records (tests, diagnostics).
func (m *Mailbox[T]) Len() int { return len(m.entries) }
