package sim

import "fmt"

// Pipe schedules values for delivery at future cycles without a closure
// per event: the values wait in a FIFO ring and every At call schedules
// the same method value, bound once at construction, whose firing pops
// the ring's head and hands it to the deliver callback. It fits any
// producer whose delivery cycles never decrease from one At to the next
// — a fixed-latency channel, a serializing link — because then firing
// order equals scheduling order (same-cycle events fire in scheduling
// order); At panics when that precondition is broken. Each At is exactly
// one Engine.At, so a Pipe's events interleave with all others exactly as
// per-event closures scheduled at the same points would.
type Pipe[T any] struct {
	eng     *Engine
	deliver func(T)
	fire    func()
	buf     []T // len is zero or a power of two
	head, n int
	last    Cycle // delivery cycle of the newest value
}

// NewPipe returns an empty pipe delivering through deliver on eng.
func NewPipe[T any](eng *Engine, deliver func(T)) *Pipe[T] {
	p := &Pipe[T]{eng: eng, deliver: deliver}
	p.fire = p.pop
	return p
}

// At schedules v for delivery at cycle c (before that cycle's phases,
// like any event). c must not precede the previous At's cycle.
func (p *Pipe[T]) At(c Cycle, v T) {
	if c < p.last {
		panic(fmt.Sprintf("sim: Pipe delivery at cycle %d scheduled after one at %d", c, p.last))
	}
	p.last = c
	if p.n == len(p.buf) {
		grown := make([]T, max(4, 2*len(p.buf)))
		for i := 0; i < p.n; i++ {
			grown[i] = p.buf[(p.head+i)&(len(p.buf)-1)]
		}
		p.buf, p.head = grown, 0
	}
	p.buf[(p.head+p.n)&(len(p.buf)-1)] = v
	p.n++
	p.eng.At(c, p.fire)
}

// Len returns the number of values scheduled but not yet delivered.
func (p *Pipe[T]) Len() int { return p.n }

func (p *Pipe[T]) pop() {
	var zero T
	v := p.buf[p.head]
	p.buf[p.head] = zero // drop references for the GC
	p.head = (p.head + 1) & (len(p.buf) - 1)
	p.n--
	p.deliver(v)
}
