// Package arbiter implements the iSLIP crossbar scheduling algorithm
// (McKeown, ToN 1999) used by every switch in the paper's evaluation
// (Table I: "Scheduling: iSlip algorithm"). iSLIP computes a maximal
// matching between input and output ports with rotating round-robin
// grant/accept pointers, which is what gives the fair per-input-port
// arbitration the CCFIT fairness analysis relies on.
package arbiter

import (
	"fmt"
	"math/bits"
)

// MaxPorts bounds the port count of one scheduler: request sets travel
// as one uint64 bit per input port.
const MaxPorts = 64

// ISlip is an iSLIP scheduler instance for one switch. It keeps the
// per-output grant pointers and per-input accept pointers across
// cycles, as the algorithm requires ("desynchronisation" of pointers is
// what makes iSLIP achieve 100% throughput on uniform traffic).
type ISlip struct {
	in, out, iters int
	grant          []int // per output: next input to favour
	accept         []int // per input: next output to favour
	// scratch, reused across Match calls to stay allocation-free
	matchIn []int // per input: matched output or -1
	granted []int // per input: output that granted this iteration
}

// NewISlip returns a scheduler for in input ports and out output ports
// running the given number of request/grant/accept iterations per cycle
// (the paper does not state the count; 2 is a common hardware choice
// and the results are insensitive to it — see BenchmarkAblationISlip).
func NewISlip(in, out, iters int) *ISlip {
	if in <= 0 || out <= 0 || iters <= 0 {
		panic("arbiter: NewISlip needs positive dimensions and iterations")
	}
	if in > MaxPorts || out > MaxPorts {
		panic(fmt.Sprintf("arbiter: NewISlip(%d, %d): at most %d ports (request masks are one uint64)", in, out, MaxPorts))
	}
	return &ISlip{
		in: in, out: out, iters: iters,
		grant:   make([]int, out),
		accept:  make([]int, in),
		matchIn: make([]int, in),
		granted: make([]int, in),
	}
}

// Match computes a matching. Bit i of req[o] says input i requests
// output o this cycle; prio[o] is the subset of req[o] whose request is
// high priority (the paper gives BECN packets transmission priority): a
// requesting input with priority wins the grant round over
// non-priority inputs at the same output. Neither slice is modified.
//
// The returned slice maps each input port to its matched output port,
// or -1; it is valid until the next Match call.
func (s *ISlip) Match(req, prio []uint64) []int {
	for i := range s.matchIn {
		s.matchIn[i] = -1
	}
	freeIn := ^uint64(0) >> (64 - s.in)
	matchedOut := uint64(0)

	for it := 0; it < s.iters; it++ {
		// Grant phase: each unmatched output picks among requesting
		// unmatched inputs — the priority subset when it is non-empty —
		// the first one at or after its round-robin pointer. An input may
		// collect several grants; it keeps the one closest to its accept
		// pointer.
		grantedIn := uint64(0)
		for o := 0; o < s.out; o++ {
			c := req[o] & freeIn
			if c == 0 || matchedOut&(1<<o) != 0 {
				continue
			}
			if p := prio[o] & c; p != 0 {
				c = p
			}
			pick := firstFrom(c, s.grant[o])
			if grantedIn&(1<<pick) == 0 || s.closerOutput(pick, o, s.granted[pick]) {
				s.granted[pick] = o
				grantedIn |= 1 << pick
			}
		}
		if grantedIn == 0 {
			break
		}
		// Accept phase: each input with a grant accepts it.
		for g := grantedIn; g != 0; g &= g - 1 {
			i := bits.TrailingZeros64(g)
			o := s.granted[i]
			s.matchIn[i] = o
			matchedOut |= 1 << o
			if it == 0 {
				// Pointers advance only for first-iteration matches
				// (the iSLIP rule that prevents starvation).
				s.grant[o] = (i + 1) % s.in
				s.accept[i] = (o + 1) % s.out
			}
		}
		freeIn &^= grantedIn
	}
	return s.matchIn
}

// firstFrom returns the lowest set bit of c at or after position from,
// wrapping to the lowest set bit overall. c must be non-zero.
func firstFrom(c uint64, from int) int {
	if hi := c >> from << from; hi != 0 {
		return bits.TrailingZeros64(hi)
	}
	return bits.TrailingZeros64(c)
}

// closerOutput reports whether output a precedes output b in input i's
// accept-pointer round-robin order.
func (s *ISlip) closerOutput(i, a, b int) bool {
	da := (a - s.accept[i] + s.out) % s.out
	db := (b - s.accept[i] + s.out) % s.out
	return da < db
}

// RoundRobin is a simple rotating picker used for per-port queue
// selection (e.g. an input adapter choosing among its AdVOQs, or an
// input port choosing among NFQ/CFQs granted the same output).
type RoundRobin struct {
	n    int
	next int
}

// NewRoundRobin returns a picker over n slots.
func NewRoundRobin(n int) *RoundRobin {
	if n <= 0 {
		panic("arbiter: NewRoundRobin needs n > 0")
	}
	return &RoundRobin{n: n}
}

// Pointer returns the current round-robin position without advancing.
func (r *RoundRobin) Pointer() int { return r.next }

// Closer reports whether slot a precedes slot b in the current
// round-robin order (used to compare candidates without advancing).
func (r *RoundRobin) Closer(a, b int) bool {
	return (a-r.next+r.n)%r.n < (b-r.next+r.n)%r.n
}

// Served advances the pointer past slot i after it was chosen.
func (r *RoundRobin) Served(i int) { r.next = (i + 1) % r.n }
