// Package cam models the content-addressable memories that FBICM and
// CCFIT attach to every switch port (Section III-A of the paper). A CAM
// has a fixed number of lines; each valid line holds the congestion
// information of one congestion point — for deterministic distributed
// routing that is a set of destination endpoints — plus a scheme-defined
// payload (input lines reference a CFQ, output lines the downstream CFQ
// and its Stop/Go state). Incoming packets are matched by destination.
package cam

import "fmt"

type entry[T any] struct {
	valid   bool
	dests   []int
	payload T
}

// CAM is a fixed-size content-addressable memory with payload type T.
// Line indices are stable for the lifetime of an allocation.
type CAM[T any] struct {
	lines []entry[T]
	free  int // unallocated lines, maintained by Alloc/Free
}

// New returns a CAM with the given number of lines.
func New[T any](lines int) *CAM[T] {
	if lines < 0 {
		panic("cam: negative line count")
	}
	return &CAM[T]{lines: make([]entry[T], lines), free: lines}
}

// Size returns the total number of lines.
func (c *CAM[T]) Size() int { return len(c.lines) }

// FreeLines returns the number of unallocated lines.
func (c *CAM[T]) FreeLines() int { return c.free }

// Match returns the index of the first valid line containing dest,
// or -1 if no line matches.
func (c *CAM[T]) Match(dest int) int {
	for i := range c.lines {
		if !c.lines[i].valid {
			continue
		}
		for _, d := range c.lines[i].dests {
			if d == dest {
				return i
			}
		}
	}
	return -1
}

// Alloc claims a free line for the given destination set and payload.
// It returns the line index, or -1 when the CAM is full (the FBICM
// failure mode the paper studies: more congestion trees than lines).
// dests is copied into storage the line keeps across allocations, so a
// line that is freed and claimed again allocates nothing; a slice
// obtained from Dests is therefore only stable until the line's Free.
func (c *CAM[T]) Alloc(dests []int, payload T) int {
	for i := range c.lines {
		if c.lines[i].valid {
			continue
		}
		c.lines[i] = entry[T]{valid: true, dests: append(c.lines[i].dests[:0], dests...), payload: payload}
		c.free--
		return i
	}
	return -1
}

// Free releases line idx. Freeing an invalid line panics: it indicates
// a double-deallocation bug in the congestion-tree teardown protocol.
func (c *CAM[T]) Free(idx int) {
	if !c.lines[idx].valid {
		panic(fmt.Sprintf("cam: double free of line %d", idx))
	}
	c.lines[idx] = entry[T]{dests: c.lines[idx].dests[:0]}
	c.free++
}

// Valid reports whether line idx is allocated.
func (c *CAM[T]) Valid(idx int) bool {
	return idx >= 0 && idx < len(c.lines) && c.lines[idx].valid
}

// Payload returns a pointer to line idx's payload for in-place updates.
func (c *CAM[T]) Payload(idx int) *T {
	if !c.lines[idx].valid {
		panic(fmt.Sprintf("cam: payload of free line %d", idx))
	}
	return &c.lines[idx].payload
}

// Dests returns the destination set of line idx (callers must not
// mutate it, nor keep it past the line's Free).
func (c *CAM[T]) Dests(idx int) []int {
	if !c.lines[idx].valid {
		panic(fmt.Sprintf("cam: dests of free line %d", idx))
	}
	return c.lines[idx].dests
}

// AddDest extends line idx's destination set (deduplicated).
func (c *CAM[T]) AddDest(idx, dest int) {
	if !c.lines[idx].valid {
		panic(fmt.Sprintf("cam: AddDest on free line %d", idx))
	}
	for _, d := range c.lines[idx].dests {
		if d == dest {
			return
		}
	}
	c.lines[idx].dests = append(c.lines[idx].dests, dest)
}

// Each calls fn for every valid line.
func (c *CAM[T]) Each(fn func(idx int, dests []int, payload *T)) {
	for i := range c.lines {
		if c.lines[i].valid {
			fn(i, c.lines[i].dests, &c.lines[i].payload)
		}
	}
}
