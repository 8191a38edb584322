package topo

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder("t")
	e0 := b.AddEndpoint("n0")
	e1 := b.AddEndpoint("n1")
	s := b.AddSwitch("s", 2)
	b.Connect(e0, 0, s, 0)
	b.Connect(e1, 0, s, 1)
	tp, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tp.NumEndpoints() != 2 {
		t.Fatalf("endpoints = %d, want 2", tp.NumEndpoints())
	}
	if tp.EndpointDevice(1) != e1 {
		t.Fatalf("EndpointDevice(1) = %d, want %d", tp.EndpointDevice(1), e1)
	}
	if got := tp.Switches(); len(got) != 1 || got[0] != s {
		t.Fatalf("Switches() = %v", got)
	}
	c := tp.Devices[e0].Ports[0]
	if c.Peer != s || c.PeerPort != 0 {
		t.Fatalf("endpoint 0 wired to %+v", c)
	}
	back := tp.Devices[s].Ports[0]
	if back.Peer != e0 || back.PeerPort != 0 {
		t.Fatalf("switch port 0 wired to %+v", back)
	}
}

func TestValidateRejectsDisconnected(t *testing.T) {
	b := NewBuilder("t")
	b.AddEndpoint("n0")
	b.AddEndpoint("n1") // never connected
	s := b.AddSwitch("s", 2)
	b.Connect(0, 0, s, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("disconnected endpoint accepted")
	}
}

func TestValidateRejectsIsolatedSwitch(t *testing.T) {
	b := NewBuilder("t")
	e0 := b.AddEndpoint("n0")
	e1 := b.AddEndpoint("n1")
	s := b.AddSwitch("s", 2)
	b.AddSwitch("island", 2)
	b.Connect(e0, 0, s, 0)
	b.Connect(e1, 0, s, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("isolated switch accepted")
	}
}

func TestDoubleConnectPanics(t *testing.T) {
	b := NewBuilder("t")
	e0 := b.AddEndpoint("n0")
	e1 := b.AddEndpoint("n1")
	s := b.AddSwitch("s", 2)
	b.Connect(e0, 0, s, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("double connect did not panic")
		}
	}()
	b.Connect(e1, 0, s, 0)
}

func TestConfig1Shape(t *testing.T) {
	tp := Config1()
	if tp.NumEndpoints() != 7 {
		t.Fatalf("endpoints = %d, want 7", tp.NumEndpoints())
	}
	if n := len(tp.Switches()); n != 2 {
		t.Fatalf("switches = %d, want 2", n)
	}
	if tp.Devices[Config1SwitchA].Kind != Switch || tp.Devices[Config1SwitchB].Kind != Switch {
		t.Fatal("switch id constants do not point at switches")
	}
	// Inter-switch link runs at 5 GB/s.
	c := tp.Devices[Config1SwitchA].Ports[3]
	if c.Peer != Config1SwitchB {
		t.Fatalf("swA port 3 peers %d, want swB", c.Peer)
	}
	if bw := tp.Links[c.Link].BytesPerCycle; bw != 2*sim.FlitBytes {
		t.Fatalf("inter-switch bandwidth = %d B/cyc, want %d", bw, 2*sim.FlitBytes)
	}
	// Endpoint links run at 2.5 GB/s.
	l := tp.Links[tp.Devices[0].Ports[0].Link]
	if l.BytesPerCycle != sim.FlitBytes {
		t.Fatalf("endpoint link bandwidth = %d, want %d", l.BytesPerCycle, sim.FlitBytes)
	}
}

func TestKaryNTreeSizesMatchTable1(t *testing.T) {
	// Table I: config #2 is a 2-ary 3-tree with 8 nodes and 12
	// switches; config #3 a 4-ary 3-tree with 64 nodes, 48 switches.
	c2 := Config2()
	if c2.NumEndpoints() != 8 || len(c2.Switches()) != 12 {
		t.Fatalf("config2: %d nodes / %d switches, want 8/12",
			c2.NumEndpoints(), len(c2.Switches()))
	}
	c3 := Config3()
	if c3.NumEndpoints() != 64 || len(c3.Switches()) != 48 {
		t.Fatalf("config3: %d nodes / %d switches, want 64/48",
			c3.NumEndpoints(), len(c3.Switches()))
	}
}

func TestKaryNTreeRejectsBadParams(t *testing.T) {
	if _, err := KaryNTree(1, 3); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := KaryNTree(2, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestFatTreeLevels(t *testing.T) {
	f := Config2()
	for _, d := range f.Devices {
		if d.Kind == Endpoint {
			if f.Level(d.ID) != -1 {
				t.Fatalf("endpoint %d has level %d", d.ID, f.Level(d.ID))
			}
			continue
		}
		l := f.Level(d.ID)
		if l < 0 || l >= f.N {
			t.Fatalf("switch %d has level %d", d.ID, l)
		}
		// Top-level switches use only their k down ports.
		up := 0
		for p := f.K; p < 2*f.K; p++ {
			if d.Ports[p].Peer >= 0 {
				up++
			}
		}
		if l == f.N-1 && up != 0 {
			t.Fatalf("top-level switch %d has %d up links", d.ID, up)
		}
		if l < f.N-1 && up != f.K {
			t.Fatalf("switch %d level %d has %d up links, want %d", d.ID, l, up, f.K)
		}
	}
}

func TestFatTreeSubtreeProperty(t *testing.T) {
	f := Config2()
	// Every endpoint is in the subtree of exactly 1 level-0 switch,
	// 2 level-1 switches... k^l switches per level l in general: the
	// number of level-l switches containing endpoint e is k^l.
	for e := 0; e < f.NumEndpoints(); e++ {
		count := make([]int, f.N)
		for _, sw := range f.Switches() {
			if f.InSubtree(sw, e) {
				count[f.Level(sw)]++
			}
		}
		for l := 0; l < f.N; l++ {
			want := pow(f.K, l)
			if count[l] != want {
				t.Fatalf("endpoint %d in %d level-%d subtrees, want %d", e, count[l], l, want)
			}
		}
	}
}

func TestFatTreeLeafAttachment(t *testing.T) {
	f := Config2()
	// Endpoint e attaches to the level-0 switch whose subtree holds it.
	for e := 0; e < f.NumEndpoints(); e++ {
		dev := f.EndpointDevice(e)
		sw := f.Devices[dev].Ports[0].Peer
		if f.Level(sw) != 0 {
			t.Fatalf("endpoint %d attached at level %d", e, f.Level(sw))
		}
		if !f.InSubtree(sw, e) {
			t.Fatalf("endpoint %d not in subtree of its own leaf switch", e)
		}
	}
}

func TestDigitsRoundTripProperty(t *testing.T) {
	f := func(v uint16, k8, nd8 uint8) bool {
		k := int(k8%6) + 2   // 2..7
		nd := int(nd8%4) + 1 // 1..4
		max := pow(k, nd)
		val := int(v) % max
		return valueOf(digitsOf(val, k, nd), k) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDETTieBreakPicksDestinationDigit(t *testing.T) {
	f := Config3() // k=4
	// A level-0 switch ascending: candidates are all 4 up ports; for
	// destination e the rule picks port k + e_0.
	var sw0 int
	for _, sw := range f.Switches() {
		if f.Level(sw) == 0 {
			sw0 = sw
			break
		}
	}
	cands := []int{4, 5, 6, 7}
	for e := 0; e < 16; e++ {
		got := f.det(sw0, e, cands)
		want := 4 + e%4
		if got != want {
			t.Fatalf("det(dest=%d) = %d, want %d", e, got, want)
		}
	}
}
