package cam

import (
	"testing"
	"testing/quick"
)

type payload struct {
	cfq  int
	stop bool
}

func TestAllocMatchFree(t *testing.T) {
	c := New[payload](2)
	if c.Size() != 2 || c.FreeLines() != 2 {
		t.Fatalf("size=%d free=%d", c.Size(), c.FreeLines())
	}
	i := c.Alloc([]int{4}, payload{cfq: 0})
	if i != 0 {
		t.Fatalf("first alloc = %d, want 0", i)
	}
	j := c.Alloc([]int{9}, payload{cfq: 1})
	if j != 1 {
		t.Fatalf("second alloc = %d, want 1", j)
	}
	if c.FreeLines() != 0 {
		t.Fatal("free lines after full alloc")
	}
	// Third congestion tree: CAM exhausted (the FBICM flaw).
	if k := c.Alloc([]int{12}, payload{}); k != -1 {
		t.Fatalf("overflow alloc = %d, want -1", k)
	}
	if c.Match(4) != 0 || c.Match(9) != 1 || c.Match(12) != -1 {
		t.Fatal("match broken")
	}
	c.Free(0)
	if c.Match(4) != -1 {
		t.Fatal("freed line still matches")
	}
	if k := c.Alloc([]int{12}, payload{}); k != 0 {
		t.Fatalf("realloc got line %d, want recycled 0", k)
	}
}

func TestPayloadInPlace(t *testing.T) {
	c := New[payload](1)
	i := c.Alloc([]int{7}, payload{cfq: 3})
	c.Payload(i).stop = true
	if !c.Payload(i).stop || c.Payload(i).cfq != 3 {
		t.Fatal("payload mutation lost")
	}
}

func TestAddDest(t *testing.T) {
	c := New[payload](1)
	i := c.Alloc([]int{1}, payload{})
	c.AddDest(i, 2)
	c.AddDest(i, 2) // dedup
	c.AddDest(i, 1) // dedup
	if got := c.Dests(i); len(got) != 2 {
		t.Fatalf("dests = %v, want [1 2]", got)
	}
	if c.Match(2) != i {
		t.Fatal("added dest does not match")
	}
}

func TestAllocCopiesDests(t *testing.T) {
	c := New[payload](1)
	ds := []int{5}
	i := c.Alloc(ds, payload{})
	ds[0] = 99
	if c.Match(5) != i || c.Match(99) != -1 {
		t.Fatal("CAM aliased the caller's destination slice")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	c := New[payload](1)
	i := c.Alloc([]int{1}, payload{})
	c.Free(i)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	c.Free(i)
}

func TestAccessFreedLinePanics(t *testing.T) {
	c := New[payload](1)
	i := c.Alloc([]int{1}, payload{})
	c.Free(i)
	for name, fn := range map[string]func(){
		"Payload": func() { c.Payload(i) },
		"Dests":   func() { c.Dests(i) },
		"AddDest": func() { c.AddDest(i, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on freed line did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestEachVisitsOnlyValid(t *testing.T) {
	c := New[payload](4)
	c.Alloc([]int{1}, payload{})
	b := c.Alloc([]int{2}, payload{})
	c.Alloc([]int{3}, payload{})
	c.Free(b)
	var seen []int
	c.Each(func(idx int, dests []int, _ *payload) {
		seen = append(seen, dests[0])
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 3 {
		t.Fatalf("Each visited %v", seen)
	}
}

func TestValidBounds(t *testing.T) {
	c := New[payload](2)
	if c.Valid(-1) || c.Valid(2) || c.Valid(0) {
		t.Fatal("Valid wrong on empty CAM / out of range")
	}
	i := c.Alloc([]int{1}, payload{})
	if !c.Valid(i) {
		t.Fatal("Valid false for allocated line")
	}
}

// Property: alloc/free churn never corrupts match results against a
// model map.
func TestCAMMatchesModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New[int](4)
		model := map[int]int{} // dest -> line
		for _, op := range ops {
			dest := int(op % 16)
			if op%2 == 0 {
				if _, ok := model[dest]; ok {
					continue
				}
				idx := c.Alloc([]int{dest}, dest)
				if len(model) < 4 {
					if idx < 0 {
						return false
					}
					model[dest] = idx
				} else if idx != -1 {
					return false
				}
			} else {
				if idx, ok := model[dest]; ok {
					c.Free(idx)
					delete(model, dest)
				}
			}
			// The free-line counter must agree with a scan of the lines.
			scan := 0
			for i := 0; i < c.Size(); i++ {
				if !c.Valid(i) {
					scan++
				}
			}
			if c.FreeLines() != scan || scan != 4-len(model) {
				return false
			}
			for d := 0; d < 16; d++ {
				idx, ok := model[d]
				if got := c.Match(d); (ok && got != idx) || (!ok && got != -1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
