package arbiter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// reqMatrix adapts a [][]bool to a request predicate.
func reqMatrix(m [][]bool) func(i, o int) bool {
	return func(i, o int) bool { return m[i][o] }
}

// masks renders request/priority predicates as the per-output input
// masks Match takes. prio may be nil.
func masks(in, out int, req, prio func(i, o int) bool) (reqM, prioM []uint64) {
	reqM, prioM = make([]uint64, out), make([]uint64, out)
	for o := 0; o < out; o++ {
		for i := 0; i < in; i++ {
			if !req(i, o) {
				continue
			}
			reqM[o] |= 1 << i
			if prio != nil && prio(i, o) {
				prioM[o] |= 1 << i
			}
		}
	}
	return reqM, prioM
}

// matchPred runs one Match over predicates.
func matchPred(s *ISlip, req, prio func(i, o int) bool) []int {
	return s.Match(masks(s.in, s.out, req, prio))
}

// refISlip is the predicate-driven iSLIP this package shipped before
// Match took bit masks: every (input, output) pair is probed through
// callbacks and the grant scan walks inputs one by one. It is kept as
// the reference TestMaskMatchEqualsPredicateReference compares against.
type refISlip struct {
	in, out, iters int
	grant, accept  []int
	matchIn        []int
	matchOut       []int
	granted        []int
}

func newRefISlip(in, out, iters int) *refISlip {
	return &refISlip{
		in: in, out: out, iters: iters,
		grant:    make([]int, out),
		accept:   make([]int, in),
		matchIn:  make([]int, in),
		matchOut: make([]int, out),
		granted:  make([]int, in),
	}
}

func (s *refISlip) Match(req, prio func(in, out int) bool) []int {
	for i := range s.matchIn {
		s.matchIn[i] = -1
	}
	for o := range s.matchOut {
		s.matchOut[o] = -1
	}
	for it := 0; it < s.iters; it++ {
		for i := range s.granted {
			s.granted[i] = -1
		}
		progress := false
		for o := 0; o < s.out; o++ {
			if s.matchOut[o] != -1 {
				continue
			}
			pick := s.pickInput(o, req, prio)
			if pick >= 0 {
				if cur := s.granted[pick]; cur == -1 || s.closerOutput(pick, o, cur) {
					s.granted[pick] = o
				}
			}
		}
		for i := 0; i < s.in; i++ {
			o := s.granted[i]
			if o == -1 || s.matchIn[i] != -1 {
				continue
			}
			s.matchIn[i] = o
			s.matchOut[o] = i
			progress = true
			if it == 0 {
				s.grant[o] = (i + 1) % s.in
				s.accept[i] = (o + 1) % s.out
			}
		}
		if !progress {
			break
		}
	}
	return s.matchIn
}

func (s *refISlip) pickInput(o int, req, prio func(in, out int) bool) int {
	pick, pickPrio := -1, false
	for k := 0; k < s.in; k++ {
		i := (s.grant[o] + k) % s.in
		if s.matchIn[i] != -1 || !req(i, o) {
			continue
		}
		p := prio != nil && prio(i, o)
		if pick == -1 || (p && !pickPrio) {
			pick, pickPrio = i, p
			if pickPrio {
				break
			}
		}
	}
	return pick
}

func (s *refISlip) closerOutput(i, a, b int) bool {
	da := (a - s.accept[i] + s.out) % s.out
	db := (b - s.accept[i] + s.out) % s.out
	return da < db
}

// refPick is RoundRobin's former predicate-driven Pick: first eligible
// slot from the pointer, pointer advanced past it; -1 if none. Hosts now
// walk an occupancy bitmap and call Served instead; this stays as their
// reference.
func refPick(r *RoundRobin, eligible func(i int) bool) int {
	for k := 0; k < r.n; k++ {
		i := (r.Pointer() + k) % r.n
		if eligible(i) {
			r.Served(i)
			return i
		}
	}
	return -1
}

// The mask implementation must reproduce the predicate reference
// exactly — matching and pointer state — on random request/priority
// matrices, with both schedulers carrying their pointers across calls.
func TestMaskMatchEqualsPredicateReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	matrices := 0
	for in := 1; in <= 9; in++ {
		for out := 1; out <= 9; out++ {
			for _, iters := range []int{1, 2, 4} {
				s, ref := NewISlip(in, out, iters), newRefISlip(in, out, iters)
				for round := 0; round < 50; round++ {
					density, prioDensity := rng.Float64(), rng.Float64()*0.5
					req := make([][]bool, in)
					prio := make([][]bool, in)
					for i := range req {
						req[i] = make([]bool, out)
						prio[i] = make([]bool, out)
						for o := range req[i] {
							req[i][o] = rng.Float64() < density
							prio[i][o] = req[i][o] && rng.Float64() < prioDensity
						}
					}
					got := matchPred(s, reqMatrix(req), reqMatrix(prio))
					want := ref.Match(reqMatrix(req), reqMatrix(prio))
					matrices++
					if !equalInts(got, want) || !equalInts(s.grant, ref.grant) || !equalInts(s.accept, ref.accept) {
						t.Fatalf("%dx%d iters=%d round %d: match %v grant %v accept %v, reference %v %v %v (req %v prio %v)",
							in, out, iters, round, got, s.grant, s.accept, want, ref.grant, ref.accept, req, prio)
					}
				}
			}
		}
	}
	if matrices < 10_000 {
		t.Fatalf("only %d matrices compared", matrices)
	}
}

// A 64-port scheduler uses every bit of the mask, including the wrap at
// the word's top bit.
func TestMaskMatchFullWidth(t *testing.T) {
	const n = MaxPorts
	s, ref := NewISlip(n, n, 2), newRefISlip(n, n, 2)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		req := make([][]bool, n)
		for i := range req {
			req[i] = make([]bool, n)
			for o := range req[i] {
				req[i][o] = rng.Intn(8) == 0
			}
		}
		prio := func(i, o int) bool { return req[i][o] && (i+o+round)%5 == 0 }
		got := matchPred(s, reqMatrix(req), prio)
		want := ref.Match(reqMatrix(req), prio)
		if !equalInts(got, want) || !equalInts(s.grant, ref.grant) || !equalInts(s.accept, ref.accept) {
			t.Fatalf("round %d: match %v, reference %v", round, got, want)
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestMatchIsAMatching(t *testing.T) {
	s := NewISlip(4, 4, 2)
	req := [][]bool{
		{true, true, false, false},
		{true, false, false, false},
		{false, false, true, true},
		{false, false, false, true},
	}
	m := matchPred(s, reqMatrix(req), nil)
	seenOut := map[int]bool{}
	for i, o := range m {
		if o == -1 {
			continue
		}
		if !req[i][o] {
			t.Fatalf("input %d matched unrequested output %d", i, o)
		}
		if seenOut[o] {
			t.Fatalf("output %d matched twice", o)
		}
		seenOut[o] = true
	}
	// iSLIP yields a *maximal* matching: no request can be added
	// between an unmatched input and an unmatched output.
	for i, o := range m {
		if o != -1 {
			continue
		}
		for cand := 0; cand < 4; cand++ {
			if req[i][cand] && !seenOut[cand] {
				t.Fatalf("matching %v not maximal: input %d / output %d both free", m, i, cand)
			}
		}
	}
}

func TestSingleContendedOutputRotates(t *testing.T) {
	// 3 inputs all wanting output 0: over 3 cycles each must win once
	// (round-robin fairness, the property the fairness study uses).
	s := NewISlip(3, 1, 1)
	wins := make([]int, 3)
	for c := 0; c < 30; c++ {
		m := matchPred(s, func(i, o int) bool { return true }, nil)
		won := -1
		for i, o := range m {
			if o == 0 {
				if won != -1 {
					t.Fatal("two inputs matched one output")
				}
				won = i
			}
		}
		if won == -1 {
			t.Fatal("nobody matched a fully requested output")
		}
		wins[won]++
	}
	for i, w := range wins {
		if w != 10 {
			t.Fatalf("input %d won %d/30, want 10 (wins=%v)", i, w, wins)
		}
	}
}

func TestNoRequestsNoMatch(t *testing.T) {
	s := NewISlip(2, 2, 2)
	m := matchPred(s, func(i, o int) bool { return false }, nil)
	for i, o := range m {
		if o != -1 {
			t.Fatalf("input %d matched %d with no requests", i, o)
		}
	}
}

func TestPriorityWinsGrant(t *testing.T) {
	s := NewISlip(4, 1, 1)
	// All inputs request output 0; input 2 has priority (a BECN at its
	// head). It must win regardless of pointer position.
	for c := 0; c < 8; c++ {
		m := matchPred(s,
			func(i, o int) bool { return true },
			func(i, o int) bool { return i == 2 },
		)
		for i, o := range m {
			if o == 0 && i != 2 {
				t.Fatalf("cycle %d: input %d beat the priority input", c, i)
			}
		}
		if m[2] != 0 {
			t.Fatalf("cycle %d: priority input unmatched", c)
		}
	}
}

func TestMultipleIterationsImprove(t *testing.T) {
	// Pattern where 1 iteration can leave an input unmatched: inputs 0
	// and 1 both want outputs 0 and 1. With pointers aligned, both
	// outputs grant input 0 in iteration 1, input 1 only matches in
	// iteration 2.
	s1 := NewISlip(2, 2, 1)
	m1 := matchPred(s1, func(i, o int) bool { return true }, nil)
	matched1 := 0
	for _, o := range m1 {
		if o != -1 {
			matched1++
		}
	}
	s2 := NewISlip(2, 2, 2)
	m2 := matchPred(s2, func(i, o int) bool { return true }, nil)
	matched2 := 0
	for _, o := range m2 {
		if o != -1 {
			matched2++
		}
	}
	if matched2 != 2 {
		t.Fatalf("2-iteration iSLIP matched %d/2", matched2)
	}
	if matched1 > matched2 {
		t.Fatalf("more iterations matched fewer ports (%d vs %d)", matched1, matched2)
	}
}

func TestDesynchronisationFullLoad(t *testing.T) {
	// Under full uniform request load, after a warm-up the pointers
	// desynchronise and every cycle yields a perfect matching — the
	// hallmark iSLIP behaviour.
	s := NewISlip(4, 4, 1)
	req := func(i, o int) bool { return true }
	perfect := 0
	for c := 0; c < 100; c++ {
		m := matchPred(s, req, nil)
		n := 0
		for _, o := range m {
			if o != -1 {
				n++
			}
		}
		if c >= 10 && n == 4 {
			perfect++
		}
	}
	if perfect != 90 {
		t.Fatalf("perfect matchings after warm-up: %d/90", perfect)
	}
}

// Property: for arbitrary request matrices the result is always a valid
// matching and respects requests.
func TestMatchValidityProperty(t *testing.T) {
	f := func(bits []bool, in8, out8 uint8) bool {
		in := int(in8%6) + 1
		out := int(out8%6) + 1
		s := NewISlip(in, out, 2)
		req := func(i, o int) bool {
			idx := i*out + o
			return idx < len(bits) && bits[idx]
		}
		for round := 0; round < 4; round++ {
			m := matchPred(s, req, nil)
			used := map[int]bool{}
			for i, o := range m {
				if o == -1 {
					continue
				}
				if o < 0 || o >= out || !req(i, o) || used[o] {
					return false
				}
				used[o] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundRobinPicker(t *testing.T) {
	r := NewRoundRobin(3)
	all := func(int) bool { return true }
	got := []int{refPick(r, all), refPick(r, all), refPick(r, all), refPick(r, all)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picks = %v, want %v", got, want)
		}
	}
	if refPick(r, func(int) bool { return false }) != -1 {
		t.Fatal("pick with nothing eligible")
	}
	// Skips ineligible slots but still rotates.
	only2 := func(i int) bool { return i == 2 }
	if refPick(r, only2) != 2 || refPick(r, only2) != 2 {
		t.Fatal("picker does not find the only eligible slot")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewISlip(0, 1, 1) },
		func() { NewISlip(1, 0, 1) },
		func() { NewISlip(1, 1, 0) },
		func() { NewISlip(MaxPorts+1, 1, 1) },
		func() { NewISlip(1, MaxPorts+1, 1) },
		func() { NewRoundRobin(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad constructor args did not panic")
				}
			}()
			fn()
		}()
	}
}

func BenchmarkISlip8x8Full(b *testing.B) {
	s := NewISlip(8, 8, 2)
	req, prio := masks(8, 8, func(i, o int) bool { return true }, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Match(req, prio)
	}
}
