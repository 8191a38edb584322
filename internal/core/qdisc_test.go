package core

import (
	"math/rand"
	"testing"

	"repro/internal/link"
	"repro/internal/pkt"
)

// fakeEnv is a scriptable PortEnv for discipline tests.
type fakeEnv struct {
	route     func(dest int) int
	outLines  map[[2]int]outLineState // (out,dest) -> state
	upstream  []link.Control
	crossings []crossing
	credits   func(out, dest int) int // nil = unlimited
}

type outLineState struct {
	stopped bool
	downCFQ int
}

type crossing struct {
	out   int
	above bool
}

func newFakeEnv() *fakeEnv {
	return &fakeEnv{
		route:    func(dest int) int { return dest % 4 },
		outLines: map[[2]int]outLineState{},
	}
}

func (e *fakeEnv) Route(dest int) int { return e.route(dest) }
func (e *fakeEnv) OutLine(out, dest int) (bool, int, bool) {
	s, ok := e.outLines[[2]int{out, dest}]
	return s.stopped, s.downCFQ, ok
}
func (e *fakeEnv) NotifyUpstream(m link.Control) { e.upstream = append(e.upstream, m) }
func (e *fakeEnv) Lookahead(out, dest int) int   { return dest / 4 }
func (e *fakeEnv) OutCredits(out, dest int) int {
	if e.credits == nil {
		return 1 << 20
	}
	return e.credits(out, dest)
}
func (e *fakeEnv) MarkCrossed(out int, above bool) {
	e.crossings = append(e.crossings, crossing{out, above})
}

func collect(d QDisc) []Request { return d.Requests(0, nil) }

func mkdata(g *pkt.IDGen, dst, size int) *pkt.Packet {
	return pkt.NewData(g, 0, dst, 0, size, 0)
}

func TestOneQSingleHead(t *testing.T) {
	p := Preset1Q()
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 8)
	var g pkt.IDGen
	d.Enqueue(mkdata(&g, 5, 2048), -1)
	d.Enqueue(mkdata(&g, 2, 2048), -1)
	rs := collect(d)
	if len(rs) != 1 {
		t.Fatalf("requests = %d, want 1 (single FIFO)", len(rs))
	}
	if rs[0].Out != 5%4 || rs[0].QID != 0 {
		t.Fatalf("request = %+v", rs[0])
	}
	got := d.Pop(0)
	if got.Dst != 5 {
		t.Fatal("FIFO order broken")
	}
	if d.UsedBytes() != 2048 {
		t.Fatalf("used = %d", d.UsedBytes())
	}
	if d.QueueCount() != 1 {
		t.Fatal("1Q queue count")
	}
}

func TestVOQSwSeparatesByOutput(t *testing.T) {
	p := PresetITh()
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 8)
	var g pkt.IDGen
	d.Enqueue(mkdata(&g, 1, 2048), -1) // out 1
	d.Enqueue(mkdata(&g, 2, 2048), -1) // out 2
	d.Enqueue(mkdata(&g, 5, 2048), -1) // out 1 (5%4)
	rs := collect(d)
	if len(rs) != 2 {
		t.Fatalf("requests = %d, want 2 (two distinct outputs)", len(rs))
	}
	for _, r := range rs {
		if r.QID != r.Out {
			t.Fatalf("VOQsw qid %d != out %d", r.QID, r.Out)
		}
	}
	if d.QueueCount() != 4 {
		t.Fatalf("queue count = %d, want 4", d.QueueCount())
	}
	// HoL independence: popping out-1's head exposes dst 5 next.
	if got := d.Pop(1); got.Dst != 1 {
		t.Fatalf("popped dst %d", got.Dst)
	}
	rs = collect(d)
	for _, r := range rs {
		if r.Out == 1 && r.Pkt.Dst != 5 {
			t.Fatalf("VOQ 1 head = dst %d, want 5", r.Pkt.Dst)
		}
	}
}

func TestVOQSwMarkCrossings(t *testing.T) {
	p := PresetITh()
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 8)
	var g pkt.IDGen
	// Fill VOQ 2 past the High threshold (4 MTUs).
	for i := 0; i < 4; i++ {
		d.Enqueue(mkdata(&g, 2, pkt.MTU), -1)
	}
	d.Update(0)
	if len(env.crossings) != 1 || env.crossings[0] != (crossing{2, true}) {
		t.Fatalf("crossings = %v, want [{2 true}]", env.crossings)
	}
	d.Update(1) // hysteresis: no repeat
	if len(env.crossings) != 1 {
		t.Fatalf("repeated crossing: %v", env.crossings)
	}
	// Drain to the Low threshold (2 MTUs).
	d.Pop(2)
	d.Pop(2)
	d.Update(2)
	if len(env.crossings) != 2 || env.crossings[1] != (crossing{2, false}) {
		t.Fatalf("crossings = %v, want below-crossing", env.crossings)
	}
}

func TestVOQSwNoMarkingWhenDisabled(t *testing.T) {
	p := PresetITh()
	p.MarkingEnabled = false
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 8)
	var g pkt.IDGen
	for i := 0; i < 8; i++ {
		d.Enqueue(mkdata(&g, 2, pkt.MTU), -1)
	}
	d.Update(0)
	if len(env.crossings) != 0 {
		t.Fatal("marking disabled but crossings reported")
	}
}

func TestVOQNetPerDestination(t *testing.T) {
	p := PresetVOQnet()
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 8)
	if d.Capacity() != 8*(4<<10) {
		t.Fatalf("VOQnet capacity = %d, want 32 KB", d.Capacity())
	}
	var g pkt.IDGen
	d.Enqueue(mkdata(&g, 1, 2048), -1)
	d.Enqueue(mkdata(&g, 5, 2048), -1) // same out port (1), different queue
	rs := collect(d)
	if len(rs) != 2 {
		t.Fatalf("requests = %d, want 2 (per-destination queues)", len(rs))
	}
	if rs[0].QID == rs[1].QID {
		t.Fatal("two destinations share a VOQnet queue")
	}
	if d.QueueCount() != 8 {
		t.Fatalf("queue count = %d, want 8", d.QueueCount())
	}
}

func TestDBBMModuloMapping(t *testing.T) {
	p := PresetDBBM()
	p.DBBMQueues = 4
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 16)
	var g pkt.IDGen
	d.Enqueue(mkdata(&g, 3, 64), -1)
	d.Enqueue(mkdata(&g, 7, 64), -1) // 7 mod 4 == 3: same queue
	rs := collect(d)
	if len(rs) != 1 {
		t.Fatalf("requests = %d, want 1 (dests 3 and 7 share queue 3)", len(rs))
	}
	if rs[0].QID != 3 {
		t.Fatalf("qid = %d, want 3", rs[0].QID)
	}
	// Queue count clamps to endpoints when smaller.
	p2 := PresetDBBM()
	p2.DBBMQueues = 8
	d2 := NewQDisc(&p2, env, 4, 3)
	if d2.QueueCount() != 3 {
		t.Fatalf("clamped queue count = %d, want 3", d2.QueueCount())
	}
}

func TestBECNPriorityFlag(t *testing.T) {
	for _, preset := range []Params{Preset1Q(), PresetITh(), PresetVOQnet(), PresetDBBM()} {
		p := preset
		env := newFakeEnv()
		d := NewQDisc(&p, env, 4, 8)
		var g pkt.IDGen
		d.Enqueue(pkt.NewBECN(&g, 3, 1, 3, 0), -1)
		rs := collect(d)
		if len(rs) != 1 || !rs[0].Priority {
			t.Fatalf("%s: BECN request not priority: %+v", p.Name, rs)
		}
	}
}

func TestFitsTracksRAM(t *testing.T) {
	p := Preset1Q()
	p.PortRAM = 4096
	env := newFakeEnv()
	d := NewQDisc(&p, env, 4, 8)
	var g pkt.IDGen
	if !d.Fits(4096) {
		t.Fatal("empty RAM rejects a fitting packet")
	}
	d.Enqueue(mkdata(&g, 1, 2048), -1)
	if d.Fits(2049) {
		t.Fatal("overcommit accepted")
	}
	if !d.Fits(2048) {
		t.Fatal("exact fit rejected")
	}
}

// bankOf unwraps the bank behind any static discipline.
func bankOf(t *testing.T, d QDisc) *bank {
	t.Helper()
	switch d := d.(type) {
	case *bank:
		return d
	case *voqSw:
		return &d.bank
	case *destBank:
		return &d.bank
	}
	t.Fatalf("%T is not a bank", d)
	return nil
}

// TestBankChurn drives every static row of the disciplines table through
// random enqueue/pop interleavings against a per-queue FIFO model.
func TestBankChurn(t *testing.T) {
	const nOut = 4
	cases := []struct {
		name      string
		disc      Discipline
		tune      func(p *Params)
		endpoints int
		queues    int
		want      func(dest int) int // fakeEnv: Route dest%4, Lookahead dest/4
	}{
		{"1Q", OneQ, nil, 8, 1, func(int) int { return 0 }},
		{"VOQsw", VOQSw, nil, 8, nOut, func(d int) int { return d % 4 }},
		{"VOQnet", VOQNet, nil, 70, 70, func(d int) int { return d }}, // two bitmap words
		{"DBBM", DBBM, func(p *Params) { p.DBBMQueues = 4 }, 16, 4, func(d int) int { return d % 4 }},
		{"DBBM more queues than endpoints", DBBM, func(p *Params) { p.DBBMQueues = 16 }, 6, 6, func(d int) int { return d }},
		{"OBQA", OBQA, nil, 16, 4, func(d int) int { return d / 4 }},
		{"OBQA modulo wrap", OBQA, func(p *Params) { p.OBQAQueues = 2 }, 32, 2, func(d int) int { return d / 4 % 2 }},
	}
	covered := map[Discipline]bool{}
	for _, c := range cases {
		covered[c.disc] = true
		t.Run(c.name, func(t *testing.T) {
			p := baseParams()
			p.Disc = c.disc
			if c.tune != nil {
				c.tune(&p)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			d := NewQDisc(&p, newFakeEnv(), nOut, c.endpoints)
			b := bankOf(t, d)
			if d.QueueCount() != c.queues {
				t.Fatalf("queue count = %d, want %d", d.QueueCount(), c.queues)
			}
			if _, ok := d.(DestOccupancy); ok != disciplines[c.disc].perDest {
				t.Fatalf("DestOccupancy = %v on a row with perDest = %v", ok, disciplines[c.disc].perDest)
			}
			model := make([][]*pkt.Packet, c.queues)
			rng := rand.New(rand.NewSource(int64(c.disc) + 1))
			var g pkt.IDGen
			var reqs []Request
			for step := 0; step < 4000; step++ {
				size := []int{64, pkt.MTU}[rng.Intn(2)]
				if rng.Intn(5) < 3 && d.Fits(size) {
					dst := rng.Intn(c.endpoints)
					pk := mkdata(&g, dst, size)
					d.Enqueue(pk, -1)
					model[c.want(dst)] = append(model[c.want(dst)], pk)
				} else if len(reqs) > 0 {
					r := reqs[rng.Intn(len(reqs))]
					if got := d.Pop(r.QID); got != model[r.QID][0] {
						t.Fatalf("step %d: queue %d popped %v, FIFO head is %v", step, r.QID, got, model[r.QID][0])
					}
					model[r.QID] = model[r.QID][1:]
				}
				// Requests: exactly the non-empty queues, ascending, each
				// with its FIFO head; occupied and DestBytes agree.
				reqs = d.Requests(0, reqs[:0])
				k, used := 0, 0
				for q, fifo := range model {
					for _, pk := range fifo {
						used += pk.Size
					}
					if b.occupied.Has(q) != (len(fifo) > 0) {
						t.Fatalf("step %d: occupied[%d] = %v with %d queued", step, q, b.occupied.Has(q), len(fifo))
					}
					if len(fifo) == 0 {
						continue
					}
					if k >= len(reqs) || reqs[k].QID != q || reqs[k].Pkt != fifo[0] || reqs[k].Out != fifo[0].Dst%4 {
						t.Fatalf("step %d: request %d = %+v, want queue %d head %v", step, k, reqs, q, fifo[0])
					}
					k++
				}
				if k != len(reqs) {
					t.Fatalf("step %d: %d requests for %d non-empty queues", step, len(reqs), k)
				}
				if d.UsedBytes() != used || d.Quiescent() != (used == 0) {
					t.Fatalf("step %d: used %d (model %d), quiescent %v", step, d.UsedBytes(), used, d.Quiescent())
				}
				if do, ok := d.(DestOccupancy); ok {
					dst := rng.Intn(c.endpoints)
					want := 0
					for _, pk := range model[dst] {
						want += pk.Size
					}
					if do.DestBytes(dst) != want {
						t.Fatalf("step %d: DestBytes(%d) = %d, want %d", step, dst, do.DestBytes(dst), want)
					}
				}
			}
		})
	}
	for disc, row := range disciplines {
		if row.classify != nil && !covered[Discipline(disc)] {
			t.Errorf("static discipline %s has no churn case", row.name)
		}
	}
}
