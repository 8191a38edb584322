package link

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

type sink struct {
	pkts []*pkt.Packet
	cfqs []int
	ctls []Control
	at   []sim.Cycle
	eng  *sim.Engine
}

func (s *sink) ReceivePacket(p *pkt.Packet, cfq int) {
	s.pkts = append(s.pkts, p)
	s.cfqs = append(s.cfqs, cfq)
	s.at = append(s.at, s.eng.Now())
}
func (s *sink) ReceiveControl(m Control) {
	s.ctls = append(s.ctls, m)
	s.at = append(s.at, s.eng.Now())
}

func setup(bpc int, delay sim.Cycle) (*sim.Engine, *Half, *sink) {
	eng := sim.NewEngine(1)
	h := NewHalf(eng, "t", bpc, delay)
	s := &sink{eng: eng}
	h.SetReceivers(s, s)
	return eng, h, s
}

func TestTxCycles(t *testing.T) {
	_, h, _ := setup(64, 4)
	cases := map[int]sim.Cycle{1: 1, 64: 1, 65: 2, 2048: 32}
	for size, want := range cases {
		if got := h.TxCycles(size); got != want {
			t.Fatalf("TxCycles(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestSendTiming(t *testing.T) {
	eng, h, s := setup(64, 4)
	var g pkt.IDGen
	p := pkt.NewData(&g, 0, 1, 0, 2048, 0)
	done := h.Send(eng.Now(), p, -1)
	if done != 32 {
		t.Fatalf("busy horizon = %d, want 32", done)
	}
	if h.Free(10) {
		t.Fatal("link free mid-transfer")
	}
	eng.Run(40)
	// Arrival = serialization (32) + propagation (4).
	if len(s.pkts) != 1 || s.at[0] != 36 {
		t.Fatalf("arrived %d packets, at %v; want 1 at 36", len(s.pkts), s.at)
	}
	if s.cfqs[0] != -1 {
		t.Fatalf("cfq tag = %d, want -1", s.cfqs[0])
	}
	if !h.Free(32) {
		t.Fatal("link not free after serialization completes")
	}
}

func TestBackToBackPacketsKeepLineRate(t *testing.T) {
	eng, h, s := setup(64, 0)
	var g pkt.IDGen
	for i := 0; i < 4; i++ {
		eng.Run(h.FreeAt())
		h.Send(eng.Now(), pkt.NewData(&g, 0, 1, 0, 2048, 0), -1)
	}
	eng.Run(200)
	if len(s.pkts) != 4 {
		t.Fatalf("delivered %d, want 4", len(s.pkts))
	}
	// 4 MTUs at 64 B/cyc = 128 cycles total, arrivals at 32,64,96,128.
	for i, at := range s.at {
		if at != sim.Cycle(32*(i+1)) {
			t.Fatalf("arrival %d at cycle %d, want %d", i, at, 32*(i+1))
		}
	}
}

func TestDoubleBandwidthHalvesTime(t *testing.T) {
	eng, h, s := setup(128, 0) // 5 GB/s inter-switch link of Config #1
	var g pkt.IDGen
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 2048, 0), -1)
	eng.Run(20)
	if len(s.pkts) != 1 || s.at[0] != 16 {
		t.Fatalf("arrival at %v, want [16]", s.at)
	}
}

func TestSendWhileBusyPanics(t *testing.T) {
	eng, h, _ := setup(64, 4)
	var g pkt.IDGen
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 2048, 0), -1)
	defer func() {
		if recover() == nil {
			t.Fatal("send on busy link did not panic")
		}
	}()
	h.Send(eng.Now(), pkt.NewData(&g, 0, 1, 0, 64, 0), -1)
}

func TestControlDelayAndNoBandwidth(t *testing.T) {
	eng, h, s := setup(64, 5)
	var g pkt.IDGen
	// Control rides alongside a data transfer without waiting for it.
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 2048, 0), 1)
	h.SendControl(0, Control{Kind: Credit, Bytes: 2048})
	eng.Run(50)
	if len(s.ctls) != 1 {
		t.Fatalf("controls = %d, want 1", len(s.ctls))
	}
	if s.at[0] != 5 { // control first: delay only
		t.Fatalf("control arrived at %d, want 5", s.at[0])
	}
	if s.ctls[0].Kind != Credit || s.ctls[0].Bytes != 2048 {
		t.Fatalf("control = %+v", s.ctls[0])
	}
	if s.cfqs[0] != 1 {
		t.Fatalf("direct-CFQ tag = %d, want 1", s.cfqs[0])
	}
}

func TestCtlKindStrings(t *testing.T) {
	for k, want := range map[CtlKind]string{
		Credit: "credit", CFQAlloc: "cfq-alloc", CFQStop: "cfq-stop",
		CFQGo: "cfq-go", CFQDealloc: "cfq-dealloc", CtlKind(42): "ctl(42)",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for _, fn := range []func(){
		func() { NewHalf(eng, "x", 0, 1) },
		func() { NewHalf(eng, "x", 64, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad link params did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestUnattachedReceiverPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHalf(eng, "x", 64, 1)
	var g pkt.IDGen
	defer func() {
		if recover() == nil {
			t.Fatal("send without receiver did not panic")
		}
	}()
	h.Send(0, pkt.NewData(&g, 0, 1, 0, 64, 0), -1)
}

// The tests below pin the fault operations against the closure-free
// delivery path: packets and control messages wait in FIFO pipes and
// are matched to their delivery events by position alone.

func TestDropInFlightCondemnsExactlyTheWire(t *testing.T) {
	eng, h, s := setup(64, 100) // long wire: several packets in flight at once
	var g pkt.IDGen
	var dropped []*pkt.Packet
	var droppedAt []sim.Cycle
	h.SetDropHandler(func(p *pkt.Packet) {
		dropped = append(dropped, p)
		droppedAt = append(droppedAt, eng.Now())
	})
	var sent []*pkt.Packet
	send := func() {
		p := pkt.NewData(&g, 0, 1, 0, 64, eng.Now()) // one cycle of serialization
		sent = append(sent, p)
		h.Send(eng.Now(), p, len(sent))
	}
	for i := 0; i < 5; i++ {
		send()
		eng.RunFor(1)
	}
	eng.Run(10)
	if got := h.DropInFlight(); got != 5 {
		t.Fatalf("DropInFlight condemned %d packets, want the 5 on the wire", got)
	}
	for i := 0; i < 3; i++ { // sent after the drop: must arrive
		send()
		eng.RunFor(1)
	}
	if pk, _ := h.InFlight(); pk != 8 {
		t.Fatalf("%d packets in flight, want 8", pk)
	}
	eng.Run(300)
	if len(dropped) != 5 || len(s.pkts) != 3 {
		t.Fatalf("dropped %d, delivered %d; want 5 and 3", len(dropped), len(s.pkts))
	}
	for i, p := range dropped {
		// Condemned packets reach the drop handler at their would-be
		// arrival cycle: sent at i, one cycle on the wire, 100 of delay.
		if p != sent[i] || droppedAt[i] != sim.Cycle(i+1+100) {
			t.Fatalf("drop %d: %v at %d, want %v at %d", i, p, droppedAt[i], sent[i], i+1+100)
		}
	}
	for i, p := range s.pkts {
		if p != sent[5+i] || s.cfqs[i] != 6+i || s.at[i] != sim.Cycle(10+i+1+100) {
			t.Fatalf("delivery %d: %v cfq %d at %d, want %v cfq %d at %d",
				i, p, s.cfqs[i], s.at[i], sent[5+i], 6+i, 10+i+1+100)
		}
	}
	if pk, by := h.InFlight(); pk != 0 || by != 0 {
		t.Fatalf("wire not empty after the run: %d packets, %d bytes", pk, by)
	}
	if pk, by := h.Dropped(); pk != 5 || by != 5*64 {
		t.Fatalf("Dropped() = %d packets, %d bytes", pk, by)
	}
}

func TestDegradeRestoreMidFlightKeepsArrivalOrder(t *testing.T) {
	eng, h, s := setup(64, 50)
	var g pkt.IDGen
	var sent []*pkt.Packet
	var wantAt []sim.Cycle
	send := func(size int) {
		eng.Run(h.FreeAt())
		p := pkt.NewData(&g, 0, 1, 0, size, eng.Now())
		sent = append(sent, p)
		wantAt = append(wantAt, h.Send(eng.Now(), p, -1)+h.Delay())
	}
	send(2048) // 32 cycles at the nominal rate
	h.Degrade(8)
	send(2048) // 256 cycles, while the first is still propagating
	send(64)
	h.Restore()
	send(2048) // nominal again, queued behind two slow ones
	send(64)
	eng.Run(1000)
	if len(s.pkts) != len(sent) {
		t.Fatalf("delivered %d of %d", len(s.pkts), len(sent))
	}
	for i := range sent {
		if s.pkts[i] != sent[i] || s.at[i] != wantAt[i] {
			t.Fatalf("arrival %d: %v at %d, want %v at %d", i, s.pkts[i], s.at[i], sent[i], wantAt[i])
		}
	}
	if wantAt[1]-wantAt[0] != 256 || wantAt[3]-wantAt[2] != 32 {
		t.Fatalf("degraded/restored serialization not applied: arrivals %v", wantAt)
	}
}

// copySink keeps its own copy of each message's destination set, as the
// ControlReceiver contract requires of receivers that retain it.
type copySink struct{ sink }

func (s *copySink) ReceiveControl(m Control) {
	m.Dests = append([]int(nil), m.Dests...)
	s.sink.ReceiveControl(m)
}

func TestTamperedControlInterleavesWithPipedCredits(t *testing.T) {
	eng := sim.NewEngine(1)
	h := NewHalf(eng, "t", 64, 5)
	s := &copySink{sink{eng: eng}}
	h.SetReceivers(s, s)
	// The fault: CFQ messages are duplicated and 7 cycles late; credits
	// pass through untouched (the lossless-aware policy).
	tamper := func(m Control) ([]Control, sim.Cycle) {
		if m.Kind == Credit {
			return []Control{m}, 0
		}
		return []Control{m, m}, 7
	}
	h.SendControl(0, Control{Kind: Credit, Bytes: 1}) // piped: arrives 5
	eng.Run(1)
	h.SetControlTamper(tamper)
	h.SendControl(1, Control{Kind: CFQStop, CFQ: 3})  // tampered: twice at 13
	h.SendControl(1, Control{Kind: Credit, Bytes: 2}) // through the tamper path: 6
	eng.Run(2)
	h.SetControlTamper(nil)
	h.SendControl(2, Control{Kind: Credit, Bytes: 3}) // piped: 7
	eng.Run(3)
	dests := []int{4, 9}
	h.SendControl(3, Control{Kind: CFQAlloc, CFQ: 1, Dests: dests}) // piped: 8
	dests[0], dests[1] = -1, -1                                     // the sender may reuse its slice at once
	eng.Run(9)
	h.SendControl(9, Control{Kind: CFQAlloc, CFQ: 2, Dests: []int{7}}) // reuses the recycled copy: 14
	eng.Run(40)

	type rx struct {
		at    sim.Cycle
		kind  CtlKind
		bytes int
		cfq   int
	}
	want := []rx{
		{5, Credit, 1, 0}, {6, Credit, 2, 0}, {7, Credit, 3, 0},
		{8, CFQAlloc, 0, 1}, {13, CFQStop, 0, 3}, {13, CFQStop, 0, 3}, {14, CFQAlloc, 0, 2},
	}
	if len(s.ctls) != len(want) {
		t.Fatalf("delivered %d control messages, want %d: %+v", len(s.ctls), len(want), s.ctls)
	}
	for i, w := range want {
		m := s.ctls[i]
		if got := (rx{s.at[i], m.Kind, m.Bytes, m.CFQ}); got != w {
			t.Fatalf("message %d: %+v, want %+v", i, got, w)
		}
	}
	if d := s.ctls[3].Dests; len(d) != 2 || d[0] != 4 || d[1] != 9 {
		t.Fatalf("CFQAlloc carried dests %v, want [4 9] (SendControl must copy)", d)
	}
	if d := s.ctls[6].Dests; len(d) != 1 || d[0] != 7 {
		t.Fatalf("second CFQAlloc carried dests %v, want [7]", d)
	}
}
