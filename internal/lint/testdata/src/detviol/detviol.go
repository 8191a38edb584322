// Package detviol seeds determinism-rule violations for the golden
// tests. Every `want RULE "substr"` comment is a diagnostic the suite
// must emit on that line; code without one must stay clean.
package detviol

import (
	"math/rand"
	"sort"
	"time"
)

// WallClock draws wall-clock time inside simulation scope.
func WallClock() int64 {
	t := time.Now() // want determinism "time.Now"
	return t.UnixNano()
}

// Elapsed measures wall-clock duration.
func Elapsed(since time.Time) time.Duration {
	return time.Since(since) // want determinism "time.Since"
}

// GlobalRand draws from the shared process stream.
func GlobalRand() int {
	return rand.Intn(6) // want determinism "math/rand.Intn"
}

// PrivateRand is fine: a component-private stream (the Engine.RNG
// pattern), not the global one.
func PrivateRand(r *rand.Rand) int {
	return r.Intn(6)
}

// Spawn puts work on the Go runtime scheduler.
func Spawn(f func()) {
	go f() // want determinism "go statement"
}

// Values collects map values in iteration order with no sort after:
// the classic order-sensitive map range.
func Values(m map[int]int) []int {
	var out []int
	for _, v := range m { // want determinism "range over map"
		out = append(out, v)
	}
	return out
}

// Emit calls out once per element: call order leaks iteration order.
func Emit(m map[int]int, emit func(int)) {
	for k := range m { // want determinism "range over map"
		emit(k)
	}
}

// Total only accumulates, which no iteration order changes; the rule
// still flags it: only collect-then-sort is admitted.
func Total(m map[int]int64) int64 {
	var sum int64
	for _, v := range m { // want determinism "range over map"
		sum += v
	}
	return sum
}

// Keys is the sanctioned collect-then-sort idiom.
func Keys(m map[int]bool) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Scale writes each element keyed by the range key, so distinct
// iterations touch distinct elements; flagged all the same.
func Scale(m map[int]int) {
	for k := range m { // want determinism "range over map"
		m[k] *= 2
	}
}

// AnyPending is a constant-store latch (every iteration that writes
// at all writes the same value); flagged all the same.
func AnyPending(m map[int]bool) bool {
	found := false
	for _, v := range m { // want determinism "range over map"
		if v {
			found = true
		}
	}
	return found
}

// KeysCounted sorts its keys, but the body does more than append: only
// a lone append is the idiom.
func KeysCounted(m map[int]bool) ([]int, int) {
	keys := make([]int, 0, len(m))
	n := 0
	for k := range m { // want determinism "range over map"
		keys = append(keys, k)
		n++
	}
	sort.Ints(keys)
	return keys, n
}

// KeysCrossed appends to one slice and assigns another: t's contents
// depend on which key came last.
func KeysCrossed(m map[int]bool, s []int) []int {
	var t []int
	for k := range m { // want determinism "range over map"
		t = append(s, k)
	}
	sort.Ints(s)
	sort.Ints(t)
	return t
}

// KeysUnsorted collects keys and sorts a different slice.
func KeysUnsorted(m map[int]bool, other []int) []int {
	keys := make([]int, 0, len(m))
	for k := range m { // want determinism "range over map"
		keys = append(keys, k)
	}
	sort.Ints(other)
	return keys
}
