package core

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestOBQAQueueAssignment(t *testing.T) {
	p := PresetOBQA()
	p.OBQAQueues = 4
	env := newFakeEnv() // Lookahead returns dest/4
	d := NewQDisc(&p, env, 4, 32)
	var g pkt.IDGen
	// dests 0..3 share lookahead 0; dests 4..7 lookahead 1.
	d.Enqueue(mkdata(&g, 1, 64), -1)
	d.Enqueue(mkdata(&g, 2, 64), -1) // same next-hop port: same queue
	d.Enqueue(mkdata(&g, 5, 64), -1) // different next-hop port
	rs := collect(d)
	if len(rs) != 2 {
		t.Fatalf("requests = %d, want 2 (two distinct next-hop ports)", len(rs))
	}
	byQ := map[int][]int{}
	for _, r := range rs {
		byQ[r.QID] = append(byQ[r.QID], r.Pkt.Dst)
	}
	if len(byQ[0]) != 1 || byQ[0][0] != 1 {
		t.Fatalf("queue 0 heads: %v", byQ[0])
	}
	if len(byQ[1]) != 1 || byQ[1][0] != 5 {
		t.Fatalf("queue 1 heads: %v", byQ[1])
	}
	if d.QueueCount() != 4 {
		t.Fatalf("queue count %d", d.QueueCount())
	}
	// HoL independence across next-hop ports: pop queue 0's head and
	// dst 2 surfaces.
	if got := d.Pop(0); got.Dst != 1 {
		t.Fatalf("popped %d", got.Dst)
	}
	rs = collect(d)
	for _, r := range rs {
		if r.QID == 0 && r.Pkt.Dst != 2 {
			t.Fatalf("queue 0 head now %d, want 2", r.Pkt.Dst)
		}
	}
}

func TestOBQAModuloWraps(t *testing.T) {
	p := PresetOBQA()
	p.OBQAQueues = 2
	env := newFakeEnv() // Lookahead dest/4: dest 8 -> 2 -> queue 0
	d := NewQDisc(&p, env, 4, 32)
	var g pkt.IDGen
	d.Enqueue(mkdata(&g, 8, 64), -1)
	rs := collect(d)
	if len(rs) != 1 || rs[0].QID != 0 {
		t.Fatalf("requests %+v", rs)
	}
}

func TestOBQAValidation(t *testing.T) {
	p := PresetOBQA()
	p.OBQAQueues = 0
	if err := p.Validate(); err == nil {
		t.Fatal("zero OBQA queues accepted")
	}
}

func TestVOQswOnlyPreset(t *testing.T) {
	p := PresetVOQswOnly()
	if p.MarkingEnabled || p.ThrottlingEnabled {
		t.Fatal("VOQsw-only preset must not mark or throttle")
	}
	if p.Disc != VOQSw {
		t.Fatal("wrong discipline")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIsolationReallocCycle(t *testing.T) {
	// A CFQ deallocated for one tree must be reusable for another, and
	// the recycled line must not inherit stale state.
	p := PresetCCFIT()
	p.HoldDown = 4
	u, env := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 5)
	for c := sim.Cycle(0); c < 10; c++ {
		u.Post(c)
		u.Update(c)
	}
	if u.ActiveLines() != 1 {
		t.Fatal("setup: no line")
	}
	for u.Pop(1) != nil {
	}
	u.Update(100)
	u.Update(200)
	if u.ActiveLines() != 0 {
		t.Fatal("line not released")
	}
	env.upstream = env.upstream[:0]
	// New, milder tree to a different destination reuses line 0: 3
	// MTUs stay below the High (4 MTU) and propagate thresholds, so
	// any OverHigh/Announced on the recycled line would be stale.
	fill(u, &g, 9, 3)
	fill(u, &g, 11, 2)
	for c := sim.Cycle(300); c < 320; c++ {
		u.Post(c)
		u.Update(c)
	}
	line, ok := u.LineInfo(0)
	if !ok || line.Dest != 9 {
		t.Fatalf("recycled line %+v", line)
	}
	if line.Stopped || line.OverHigh || line.Announced || !line.Root {
		t.Fatalf("recycled line carries stale state: %+v", line)
	}
}

func TestIsolationDetectScanBounded(t *testing.T) {
	// With DetectScan = 4, a dominant destination deeper in the NFQ is
	// invisible; detection keys on the scanned prefix only.
	p := PresetCCFIT()
	p.DetectScan = 4
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 1, 4) // prefix: 4 MTUs to dest 1
	fill(u, &g, 2, 8) // deeper: 8 MTUs to dest 2 (unseen)
	u.Post(0)
	line, ok := u.LineInfo(0)
	if !ok || line.Dest != 1 {
		t.Fatalf("detection saw beyond the scan window: %+v", line)
	}
}

func TestIsolationPostMoveBudget(t *testing.T) {
	p := PresetCCFIT()
	p.PostMovesPerCycle = 1
	u, _ := newUnit(&p)
	var g pkt.IDGen
	fill(u, &g, 2, 6)
	u.Post(0) // budget spent on detection
	if u.CFQBytes(0) != 0 {
		t.Fatal("move happened in the detection cycle despite budget 1")
	}
	u.Post(1)
	if u.CFQBytes(0) != pkt.MTU {
		t.Fatalf("one move expected, CFQ holds %d", u.CFQBytes(0))
	}
}
