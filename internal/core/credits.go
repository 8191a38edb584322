package core

import "fmt"

// CreditPool tracks the buffer space a sender may still consume at the
// downstream receiver. Most disciplines share one pool per port RAM;
// VOQnet uses one pool per destination queue (Table I's 4 KB/queue), so
// a hot destination can only ever occupy its own queue and never
// crowds out other destinations — the property that makes VOQnet the
// reference scheme.
type CreditPool struct {
	shared  int
	perDest []int
	// capacity is the as-built balance (shared total or per-destination
	// quota); a balance above it means someone returned credit that was
	// never taken — the invariant checker's bound.
	capacity int
}

// NewSharedCredits returns a single-counter pool of n bytes.
func NewSharedCredits(n int) *CreditPool {
	if n <= 0 {
		panic("core: credit pool must be positive")
	}
	return &CreditPool{shared: n, capacity: n}
}

// NewPerDestCredits returns a per-destination pool with `each` bytes
// for every one of numDests destination queues.
func NewPerDestCredits(numDests, each int) *CreditPool {
	if numDests <= 0 || each <= 0 {
		panic("core: per-destination credit pool must be positive")
	}
	p := &CreditPool{perDest: make([]int, numDests), capacity: each}
	for i := range p.perDest {
		p.perDest[i] = each
	}
	return p
}

// Capacity returns the as-built balance (per destination when PerDest).
func (c *CreditPool) Capacity() int { return c.capacity }

// CheckBounds verifies no balance exceeds the as-built capacity (a
// balance above capacity means a spurious credit return: the sender
// would overrun the receiver's RAM and break losslessness). Negative
// balances cannot occur — Take panics on underflow.
func (c *CreditPool) CheckBounds() error {
	if c.perDest != nil {
		for d, b := range c.perDest {
			if b > c.capacity {
				return fmt.Errorf("credit balance for dest %d is %d, exceeds capacity %d", d, b, c.capacity)
			}
		}
		return nil
	}
	if c.shared > c.capacity {
		return fmt.Errorf("shared credit balance %d exceeds capacity %d", c.shared, c.capacity)
	}
	return nil
}

// PerDest reports whether the pool is per-destination.
func (c *CreditPool) PerDest() bool { return c.perDest != nil }

// Avail returns the credits available for a packet to dest.
func (c *CreditPool) Avail(dest int) int {
	if c.perDest != nil {
		return c.perDest[dest]
	}
	return c.shared
}

// Take consumes n bytes of credit for dest.
func (c *CreditPool) Take(dest, n int) {
	if c.Avail(dest) < n {
		panic(fmt.Sprintf("core: credit underflow for dest %d: take %d, have %d", dest, n, c.Avail(dest)))
	}
	if c.perDest != nil {
		c.perDest[dest] -= n
		return
	}
	c.shared -= n
}

// Give returns n bytes of credit for dest.
func (c *CreditPool) Give(dest, n int) {
	if c.perDest != nil {
		c.perDest[dest] += n
		return
	}
	c.shared += n
}
