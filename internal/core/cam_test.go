package core

import (
	"testing"
	"testing/quick"
)

// The input-port CAM's line table: alloc, match and free on a unit
// with four lines.
func newCAM() *IsolationUnit {
	p := PresetCCFIT()
	p.NumCFQs = 4
	u, _ := newUnit(&p)
	return u
}

func TestCAMAllocMatchFree(t *testing.T) {
	u := newCAM()
	for i, d := range []int{4, 9, 5, 7} {
		if got := u.alloc(InLine{Dest: d}); got != i {
			t.Fatalf("alloc %d = %d, want %d", i, got, i)
		}
	}
	// A fifth congestion tree: the table is full (the FBICM flaw).
	if k := u.alloc(InLine{Dest: 12}); k != -1 {
		t.Fatalf("overflow alloc = %d, want -1", k)
	}
	if u.match(4) != 0 || u.match(9) != 1 || u.match(12) != -1 {
		t.Fatal("match broken")
	}
	u.free(0)
	if u.match(4) != -1 || u.ActiveLines() != 3 {
		t.Fatalf("freed line still matches (active %d)", u.ActiveLines())
	}
	if k := u.alloc(InLine{Dest: 12}); k != 0 {
		t.Fatalf("realloc got line %d, want recycled 0", k)
	}
}

func TestCAMDoubleFreePanics(t *testing.T) {
	u := newCAM()
	i := u.alloc(InLine{Dest: 1})
	u.free(i)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	u.free(i)
}

// Property: alloc/free churn never corrupts match results or the count
// of allocated lines against a model map.
func TestCAMMatchesModelProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		u := newCAM()
		model := map[int]int{} // dest -> line
		for _, op := range ops {
			dest := int(op % 16)
			if op%2 == 0 {
				if _, ok := model[dest]; ok {
					continue
				}
				idx := u.alloc(InLine{Dest: dest})
				if len(model) < 4 {
					if idx < 0 {
						return false
					}
					model[dest] = idx
				} else if idx != -1 {
					return false
				}
			} else if idx, ok := model[dest]; ok {
				u.free(idx)
				delete(model, dest)
			}
			scan := 0
			for i := 0; i < 4; i++ {
				if _, ok := u.LineInfo(i); ok {
					scan++
				}
			}
			if u.ActiveLines() != scan || scan != len(model) {
				return false
			}
			for d := 0; d < 16; d++ {
				idx, ok := model[d]
				if got := u.match(d); (ok && got != idx) || (!ok && got != -1) {
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
