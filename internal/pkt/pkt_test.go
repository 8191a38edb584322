package pkt

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIDGenUnique(t *testing.T) {
	var g IDGen
	seen := make(map[uint64]bool)
	for i := 0; i < 1000; i++ {
		id := g.Next()
		if id == 0 {
			t.Fatal("id 0 handed out; 0 is reserved for 'unset'")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestNewData(t *testing.T) {
	var g IDGen
	p := NewData(&g, 3, 7, 11, MTU, 42)
	if p.Kind != Data || p.Src != 3 || p.Dst != 7 || p.Flow != 11 || p.Size != MTU {
		t.Fatalf("bad data packet: %+v", p)
	}
	if p.Injected != 42 {
		t.Fatalf("Injected = %d, want 42", p.Injected)
	}
	if p.FECN {
		t.Fatal("fresh packet must not be FECN-marked")
	}
}

func TestNewBECN(t *testing.T) {
	var g IDGen
	// Node 7 got a FECN packet from node 3 addressed to 7: BECN goes
	// 7 -> 3 and names 7 as the congested destination.
	p := NewBECN(&g, 7, 3, 7, 100)
	if p.Kind != BECN {
		t.Fatalf("kind = %v, want BECN", p.Kind)
	}
	if p.Src != 7 || p.Dst != 3 || p.CongDst != 7 {
		t.Fatalf("bad BECN addressing: %+v", p)
	}
	if p.Size != BECNSize {
		t.Fatalf("size = %d, want %d", p.Size, BECNSize)
	}
	if p.Flow != -1 {
		t.Fatalf("BECN flow = %d, want -1", p.Flow)
	}
}

func TestStringMentionsFECN(t *testing.T) {
	var g IDGen
	p := NewData(&g, 0, 1, 0, MTU, 0)
	if strings.Contains(p.String(), "FECN") {
		t.Fatal("unmarked packet stringifies with FECN")
	}
	p.FECN = true
	if !strings.Contains(p.String(), "FECN") {
		t.Fatal("marked packet does not stringify with FECN")
	}
	if !strings.Contains(BECN.String(), "becn") || !strings.Contains(Data.String(), "data") {
		t.Fatal("Kind.String broken")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind stringifies empty")
	}
}

func TestIDGenMonotonicProperty(t *testing.T) {
	f := func(n uint8) bool {
		var g IDGen
		prev := uint64(0)
		for i := 0; i < int(n)+1; i++ {
			id := g.Next()
			if id <= prev {
				return false
			}
			prev = id
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoolReuseAndScrub(t *testing.T) {
	var pl Pool
	var g IDGen
	p1 := pl.NewData(&g, 0, 3, 7, 512, 100)
	if pl.Allocs != 1 || pl.Reuses != 0 || pl.BytesOut() != 512 {
		t.Fatalf("Allocs=%d Reuses=%d BytesOut=%d after first get", pl.Allocs, pl.Reuses, pl.BytesOut())
	}
	p1.FECN = true
	p1.Delivered = 200
	pl.Release(p1)
	if pl.FreeLen() != 1 || pl.Releases != 1 || pl.BytesOut() != 0 {
		t.Fatalf("FreeLen=%d Releases=%d BytesOut=%d after release", pl.FreeLen(), pl.Releases, pl.BytesOut())
	}
	if (*p1 != Packet{pooled: true}) {
		t.Fatalf("released packet not scrubbed: %+v", *p1)
	}
	p2 := pl.NewBECN(&g, 3, 0, 3, 300)
	if p2 != p1 {
		t.Fatal("free-list did not reuse the released packet")
	}
	if pl.Reuses != 1 || pl.FreeLen() != 0 || pl.BytesOut() != BECNSize {
		t.Fatalf("Reuses=%d FreeLen=%d BytesOut=%d after reuse", pl.Reuses, pl.FreeLen(), pl.BytesOut())
	}
	if p2.Kind != BECN || p2.ID != 2 || p2.FECN || p2.Delivered != 0 {
		t.Fatalf("reused packet carries stale state: %+v", *p2)
	}
}

// TestPoolDoubleReleasePanics pins the loud-failure contract the fault
// paths rely on: a link-flap drop handler is the single owner of a
// condemned packet, and any second Release (a component that wrongly
// kept a reference) must be caught at the call site, not surface later
// as two aliased live packets.
func TestPoolDoubleReleasePanics(t *testing.T) {
	var pl Pool
	var g IDGen
	p := pl.NewData(&g, 0, 1, 0, 64, 0)
	pl.Release(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
		if pl.Releases != 1 || pl.FreeLen() != 1 || pl.BytesOut() != 0 {
			t.Fatalf("double release corrupted the free-list: Releases=%d FreeLen=%d BytesOut=%d", pl.Releases, pl.FreeLen(), pl.BytesOut())
		}
	}()
	pl.Release(p)
}

// TestPoolReleaseClearsOnReuse verifies the pooled sentinel does not
// outlive reuse: a recycled packet must be releasable exactly once
// again.
func TestPoolReleaseClearsOnReuse(t *testing.T) {
	var pl Pool
	var g IDGen
	p := pl.NewData(&g, 0, 1, 0, 64, 0)
	pl.Release(p)
	q := pl.NewData(&g, 2, 3, 1, 128, 9)
	if q != p {
		t.Fatal("expected reuse of the released packet")
	}
	pl.Release(q) // must not panic: reuse cleared the sentinel
	if pl.Releases != 2 {
		t.Fatalf("Releases = %d, want 2", pl.Releases)
	}
}

func TestPoolNilSafe(t *testing.T) {
	var pl *Pool
	var g IDGen
	p := pl.NewData(&g, 0, 1, 0, 64, 0)
	if p == nil || p.ID != 1 {
		t.Fatalf("nil pool NewData = %+v", p)
	}
	pl.Release(p) // must not panic
	pl.Release(nil)
	if pl.FreeLen() != 0 || pl.BytesOut() != 0 {
		t.Fatal("nil pool reports free packets or bytes out")
	}
}

func TestPoolLIFOOrder(t *testing.T) {
	// Reuse order is part of the deterministic schedule: last released,
	// first reused.
	var pl Pool
	var g IDGen
	a := pl.NewData(&g, 0, 1, 0, 64, 0)
	b := pl.NewData(&g, 0, 1, 0, 64, 0)
	pl.Release(a)
	pl.Release(b)
	if got := pl.NewData(&g, 0, 1, 0, 64, 0); got != b {
		t.Fatal("expected LIFO reuse: last released packet first")
	}
	if got := pl.NewData(&g, 0, 1, 0, 64, 0); got != a {
		t.Fatal("expected LIFO reuse: first released packet second")
	}
}
