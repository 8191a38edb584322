package sim

import "math/bits"

// ActiveSet is an incrementally maintained set of small non-negative
// indices, stored as a multi-word bitmap. Hot paths iterate it instead of
// scanning the dense array it indexes: Next walks members in ascending
// index order, so replacing a full scan by an ActiveSet walk visits the
// same elements in the same order and determinism is free. The engine's
// per-phase active lists, the end nodes' non-empty AdVOQs and the traffic
// generator's open flows all use it. Add and Remove never allocate once
// Grow has sized the set.
type ActiveSet struct {
	words []uint64
	n     int
}

// Grow extends the index domain to [0, size). Members are kept.
func (s *ActiveSet) Grow(size int) {
	for len(s.words)<<6 < size {
		s.words = append(s.words, 0)
	}
}

// Add inserts i and reports whether it was absent.
func (s *ActiveSet) Add(i int) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.n++
	return true
}

// Remove deletes i and reports whether it was present.
func (s *ActiveSet) Remove(i int) bool {
	w, b := i>>6, uint64(1)<<(i&63)
	if s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.n--
	return true
}

// Has reports whether i is a member.
func (s *ActiveSet) Has(i int) bool {
	return s.words[i>>6]&(uint64(1)<<(i&63)) != 0
}

// Len returns the number of members.
func (s *ActiveSet) Len() int { return s.n }

// Next returns the smallest member >= from, or -1 when there is none.
// The bitmap is read at call time, so a loop of the form
//
//	for i := s.Next(0); i >= 0; i = s.Next(i + 1) { ... }
//
// sees members added at indices above i during the walk and does not
// revisit indices at or below i — the semantics of a dense index-order
// scan that re-tests membership at every slot.
func (s *ActiveSet) Next(from int) int {
	w := from >> 6
	if w >= len(s.words) {
		return -1
	}
	if set := s.words[w] >> (from & 63) << (from & 63); set != 0 {
		return w<<6 | bits.TrailingZeros64(set)
	}
	for w++; w < len(s.words); w++ {
		if set := s.words[w]; set != 0 {
			return w<<6 | bits.TrailingZeros64(set)
		}
	}
	return -1
}
