package topo

import "testing"

func TestLeafSpineShape(t *testing.T) {
	ls, err := NewLeafSpine(4, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	tp := ls.Topology
	if tp.NumEndpoints() != 16 {
		t.Fatalf("endpoints %d, want 16", tp.NumEndpoints())
	}
	if got := len(tp.Switches()); got != 6 {
		t.Fatalf("switches %d, want 4 leaves + 2 spines", got)
	}
	// Every leaf reaches every spine exactly once.
	for l := 0; l < 4; l++ {
		leaf := tp.Devices[ls.LeafDevice(l)]
		up := 0
		for _, c := range leaf.Ports {
			if c.Peer >= 0 && tp.Devices[c.Peer].Kind == Switch {
				up++
			}
		}
		if up != 2 {
			t.Fatalf("leaf %d has %d fabric links, want 2", l, up)
		}
	}
	// Endpoint placement is leaf-major.
	if tp.Devices[5].Ports[0].Peer != ls.LeafDevice(1) {
		t.Fatalf("endpoint 5 attached to device %d, want leaf 1", tp.Devices[5].Ports[0].Peer)
	}
	if ls.LeafOf(5) != 1 || ls.LeafOf(15) != 3 {
		t.Fatalf("LeafOf(5)=%d LeafOf(15)=%d", ls.LeafOf(5), ls.LeafOf(15))
	}
}

func TestLeafSpineValidation(t *testing.T) {
	for _, args := range [][4]int{{1, 4, 2, 1}, {4, 0, 2, 1}, {4, 4, 0, 1}, {4, 4, 2, 0}} {
		if _, err := NewLeafSpine(args[0], args[1], args[2], args[3]); err == nil {
			t.Fatalf("accepted %v", args)
		}
	}
}

// TestLeafSpinePortCounts pins the exact port arithmetic of the
// builder for a trunked fabric: leaves get down + spines*trunk ports,
// spines get leaves*trunk, endpoints one each, and every port is
// connected.
func TestLeafSpinePortCounts(t *testing.T) {
	const leaves, down, spines, trunk = 3, 4, 2, 2
	ls, err := NewLeafSpine(leaves, down, spines, trunk)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < ls.NumEndpoints(); e++ {
		if got := len(ls.Devices[e].Ports); got != 1 {
			t.Fatalf("endpoint %d has %d ports", e, got)
		}
	}
	for l := 0; l < leaves; l++ {
		if got := len(ls.Devices[ls.LeafDevice(l)].Ports); got != down+spines*trunk {
			t.Fatalf("leaf %d has %d ports, want %d", l, got, down+spines*trunk)
		}
	}
	for s := 0; s < spines; s++ {
		if got := len(ls.Devices[ls.SpineDevice(s)].Ports); got != leaves*trunk {
			t.Fatalf("spine %d has %d ports, want %d", s, got, leaves*trunk)
		}
	}
	for _, d := range ls.Devices {
		for p, c := range d.Ports {
			if c.Peer < 0 {
				t.Fatalf("device %d port %d unconnected", d.ID, p)
			}
		}
	}
}

// TestLeafSpineTrunkMultiplicity checks the link multiplicity the
// oversubscription ratio promises: each leaf-spine pair is joined by
// exactly `trunk` parallel links.
func TestLeafSpineTrunkMultiplicity(t *testing.T) {
	const leaves, down, spines, trunk = 3, 4, 2, 2
	ls, err := NewLeafSpine(leaves, down, spines, trunk)
	if err != nil {
		t.Fatal(err)
	}
	mult := make([][]int, leaves)
	for l := range mult {
		mult[l] = make([]int, spines)
	}
	for _, lk := range ls.Links {
		a, b := lk.DevA, lk.DevB
		if ls.Devices[a].Kind != Switch || ls.Devices[b].Kind != Switch {
			continue
		}
		if a > b {
			a, b = b, a
		}
		mult[a-ls.LeafDevice(0)][b-ls.SpineDevice(0)]++
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			if mult[l][s] != trunk {
				t.Fatalf("leaf %d - spine %d joined by %d links, want %d", l, s, mult[l][s], trunk)
			}
		}
	}
}

// TestLeafSpineDETTieBreakPure pins the per-destination convergence
// property: the tie-break is a pure function of (device, destination),
// picks a real candidate, and distinct destinations spread over all
// spines and trunk members.
func TestLeafSpineDETTieBreakPure(t *testing.T) {
	ls, err := NewLeafSpine(4, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	up := []int{4, 5, 6, 7} // a leaf's Down ports come first, then Spines×Trunk up ports
	chosen := map[int]bool{}
	for dest := 0; dest < ls.NumEndpoints(); dest++ {
		leaf := ls.LeafDevice(ls.LeafOf(dest) ^ 1) // any leaf not hosting dest
		p := ls.det(leaf, dest, up)
		q := ls.det(leaf, dest, up)
		if p != q {
			t.Fatalf("tie-break not pure for dest %d: %d vs %d", dest, p, q)
		}
		found := false
		for _, c := range up {
			if c == p {
				found = true
			}
		}
		if !found {
			t.Fatalf("tie-break for dest %d returned non-candidate %d", dest, p)
		}
		chosen[p] = true
	}
	if len(chosen) != len(up) {
		t.Fatalf("destinations use %d of %d up ports; DET should spread over all spines and trunks", len(chosen), len(up))
	}
}
