package buffer

import (
	"testing"
	"testing/quick"

	"repro/internal/pkt"
)

func mk(size int) *pkt.Packet {
	var g pkt.IDGen
	return pkt.NewData(&g, 0, 1, 0, size, 0)
}

func TestFIFOOrder(t *testing.T) {
	q := NewQueue(nil)
	var g pkt.IDGen
	var want []uint64
	for i := 0; i < 100; i++ {
		p := pkt.NewData(&g, 0, 1, 0, 64, 0)
		want = append(want, p.ID)
		q.Push(p)
	}
	if q.Len() != 100 || q.Bytes() != 6400 {
		t.Fatalf("len=%d bytes=%d", q.Len(), q.Bytes())
	}
	for i, id := range want {
		p := q.Pop()
		if p == nil || p.ID != id {
			t.Fatalf("pop %d: got %v, want id %d", i, p, id)
		}
	}
	if !q.Empty() || q.Bytes() != 0 {
		t.Fatal("queue not empty after draining")
	}
	if q.Pop() != nil || q.Head() != nil {
		t.Fatal("empty queue returned a packet")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	// Exercise the ring buffer wrap-around.
	q := NewQueue(nil)
	var g pkt.IDGen
	next := uint64(1)
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(pkt.NewData(&g, 0, 1, 0, 64, 0))
		}
		for i := 0; i < 2; i++ {
			p := q.Pop()
			if p.ID != next {
				t.Fatalf("round %d: got id %d, want %d", round, p.ID, next)
			}
			next++
		}
	}
	if q.Len() != 50 {
		t.Fatalf("len = %d, want 50", q.Len())
	}
}

func TestAtIndexes(t *testing.T) {
	q := NewQueue(nil)
	var g pkt.IDGen
	for i := 0; i < 10; i++ {
		q.Push(pkt.NewData(&g, 0, i, 0, 64, 0))
	}
	q.Pop()
	q.Pop()
	for i := 0; i < q.Len(); i++ {
		if q.At(i).Dst != i+2 {
			t.Fatalf("At(%d).Dst = %d, want %d", i, q.At(i).Dst, i+2)
		}
	}
	if q.At(-1) != nil || q.At(q.Len()) != nil {
		t.Fatal("out-of-range At returned a packet")
	}
}

func TestRAMAccounting(t *testing.T) {
	ram := NewRAM(1024)
	q := NewQueue(ram)
	q.Push(mk(512))
	if ram.Used() != 512 || ram.Free() != 512 {
		t.Fatalf("used=%d free=%d", ram.Used(), ram.Free())
	}
	if !ram.Fits(512) || ram.Fits(513) {
		t.Fatal("Fits miscounts")
	}
	q.Pop()
	if ram.Used() != 0 {
		t.Fatalf("used=%d after pop", ram.Used())
	}
}

func TestRAMSharedAcrossQueues(t *testing.T) {
	ram := NewRAM(1000)
	a := NewQueue(ram)
	b := NewQueue(ram)
	a.Push(mk(400))
	b.Push(mk(400))
	if ram.Free() != 200 {
		t.Fatalf("free=%d, want 200", ram.Free())
	}
	if ram.Fits(400) {
		t.Fatal("overcommit allowed")
	}
}

func TestRAMOverflowPanics(t *testing.T) {
	ram := NewRAM(100)
	q := NewQueue(ram)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	q.Push(mk(101))
}

func TestTransferHeadSamePool(t *testing.T) {
	ram := NewRAM(1024)
	qs := NewQueues(2, ram) // a port's bank: one pool, queues by value
	nfq, cfq := &qs[0], &qs[1]
	p := mk(512)
	nfq.Push(p)
	got := nfq.TransferHead(cfq)
	if got != p {
		t.Fatal("TransferHead returned wrong packet")
	}
	if ram.Used() != 512 {
		t.Fatalf("used=%d, want 512 (move must not double-count)", ram.Used())
	}
	if nfq.Len() != 0 || cfq.Len() != 1 || cfq.Bytes() != 512 {
		t.Fatal("queues inconsistent after move")
	}
	if cfq.Pop() != p {
		t.Fatal("moved packet lost")
	}
	if ram.Used() != 0 {
		t.Fatalf("used=%d after final pop", ram.Used())
	}
}

func TestTransferHeadAcrossPools(t *testing.T) {
	ra, rb := NewRAM(1024), NewRAM(1024)
	a := NewQueue(ra)
	b := NewQueue(rb)
	a.Push(mk(256))
	a.TransferHead(b)
	if ra.Used() != 0 || rb.Used() != 256 {
		t.Fatalf("ra=%d rb=%d", ra.Used(), rb.Used())
	}
}

func TestTransferHeadEmpty(t *testing.T) {
	a := NewQueue(nil)
	b := NewQueue(nil)
	if a.TransferHead(b) != nil {
		t.Fatal("transfer from empty queue returned a packet")
	}
}

// Property: any sequence of pushes and pops keeps byte accounting exact,
// preserves FIFO order and keeps the ring's length zero or a power of
// two.
func TestQueueInvariantsProperty(t *testing.T) {
	f := func(ops []bool, sizes []uint8) bool {
		ram := NewRAM(1 << 20)
		q := NewQueue(ram)
		var g pkt.IDGen
		var model []*pkt.Packet
		si := 0
		for _, push := range ops {
			if push {
				size := 1
				if si < len(sizes) {
					size = int(sizes[si])%2048 + 1
					si++
				}
				p := pkt.NewData(&g, 0, 1, 0, size, 0)
				q.Push(p)
				model = append(model, p)
			} else if len(model) > 0 {
				got := q.Pop()
				if got != model[0] {
					return false
				}
				model = model[1:]
			} else if q.Pop() != nil {
				return false
			}
			wantBytes := 0
			for _, p := range model {
				wantBytes += p.Size
			}
			if q.Bytes() != wantBytes || q.Len() != len(model) || ram.Used() != wantBytes {
				return false
			}
			if n := q.RingCap(); n&(n-1) != 0 { // the ring indexes with a mask
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRingShrinksAfterDrain(t *testing.T) {
	q := NewQueue(nil)
	for i := 0; i < 1000; i++ {
		q.Push(mk(64))
	}
	peak := q.RingCap()
	if peak < 1000 {
		t.Fatalf("ring cap %d after 1000 pushes", peak)
	}
	// Drain to empty: the ring must give the burst allocation back
	// instead of pinning it for the rest of the run.
	var popped int
	for q.Pop() != nil {
		popped++
	}
	if popped != 1000 {
		t.Fatalf("popped %d packets, want 1000", popped)
	}
	if got := q.RingCap(); got > peak/8 {
		t.Errorf("ring cap still %d after full drain (peak %d)", got, peak)
	}
	// FIFO behaviour must survive shrinking mid-stream.
	var g pkt.IDGen
	var want []uint64
	for i := 0; i < 300; i++ {
		p := pkt.NewData(&g, 0, 1, 0, 64, 0)
		want = append(want, p.ID)
		q.Push(p)
	}
	for i := 0; i < 250; i++ {
		if p := q.Pop(); p.ID != want[i] {
			t.Fatalf("pop %d: got id %d, want %d", i, p.ID, want[i])
		}
	}
	if q.RingCap() >= 512 {
		t.Errorf("ring cap %d with 50 packets left", q.RingCap())
	}
	for i := 250; i < 300; i++ {
		if p := q.Pop(); p.ID != want[i] {
			t.Fatalf("pop %d: got id %d, want %d", i, p.ID, want[i])
		}
	}
}
