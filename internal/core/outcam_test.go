package core

import (
	"testing"

	"repro/internal/link"
)

func TestOutCAMLifecycle(t *testing.T) {
	o := NewOutCAM(2)
	if _, _, ok := o.Lookup(4); ok {
		t.Fatal("empty CAM matched")
	}
	o.Handle(link.Control{Kind: link.CFQAlloc, CFQ: 1, Dests: []int{4, 9}})
	stopped, down, ok := o.Lookup(4)
	if !ok || stopped || down != 1 {
		t.Fatalf("lookup(4) = %v %v %v", stopped, down, ok)
	}
	if _, _, ok := o.Lookup(9); !ok {
		t.Fatal("second dest not matched")
	}
	if o.ActiveLines() != 1 {
		t.Fatalf("active = %d after one alloc", o.ActiveLines())
	}
	o.Handle(link.Control{Kind: link.CFQStop, CFQ: 1})
	if stopped, _, _ := o.Lookup(4); !stopped {
		t.Fatal("stop not applied")
	}
	o.Handle(link.Control{Kind: link.CFQGo, CFQ: 1})
	if stopped, _, _ := o.Lookup(4); stopped {
		t.Fatal("go not applied")
	}
	o.Handle(link.Control{Kind: link.CFQDealloc, CFQ: 1})
	if _, _, ok := o.Lookup(4); ok {
		t.Fatal("dealloc left the line matching")
	}
	if o.ActiveLines() != 0 {
		t.Fatalf("active = %d after dealloc", o.ActiveLines())
	}
	if o.Allocs != 1 || o.Deallocs != 1 {
		t.Fatalf("allocs=%d deallocs=%d", o.Allocs, o.Deallocs)
	}
}

func TestOutCAMIgnoresStaleMessages(t *testing.T) {
	o := NewOutCAM(2)
	// Stop/Go/Dealloc for never-allocated or out-of-range lines.
	o.Handle(link.Control{Kind: link.CFQStop, CFQ: 0})
	o.Handle(link.Control{Kind: link.CFQGo, CFQ: 1})
	o.Handle(link.Control{Kind: link.CFQDealloc, CFQ: 0})
	o.Handle(link.Control{Kind: link.CFQAlloc, CFQ: 7, Dests: []int{1}})
	if o.ActiveLines() != 0 {
		t.Fatal("stale messages changed state")
	}
}

func TestOutCAMReallocReplaces(t *testing.T) {
	o := NewOutCAM(1)
	o.Handle(link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: []int{4}})
	o.Handle(link.Control{Kind: link.CFQStop, CFQ: 0})
	// Downstream recycled CFQ 0 for a new tree: fresh line, Go state.
	o.Handle(link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: []int{6}})
	if _, _, ok := o.Lookup(4); ok {
		t.Fatal("old dests survived realloc")
	}
	stopped, _, ok := o.Lookup(6)
	if !ok || stopped {
		t.Fatal("realloc line wrong state")
	}
	if o.ActiveLines() != 1 {
		t.Fatalf("active = %d", o.ActiveLines())
	}
}

func TestOutCAMRejectsCreditKind(t *testing.T) {
	o := NewOutCAM(1)
	defer func() {
		if recover() == nil {
			t.Fatal("credit message accepted by OutCAM")
		}
	}()
	o.Handle(link.Control{Kind: link.Credit, Bytes: 64})
}

func TestOutCAMAllocCopiesDests(t *testing.T) {
	o := NewOutCAM(1)
	d := []int{5}
	o.Handle(link.Control{Kind: link.CFQAlloc, CFQ: 0, Dests: d})
	d[0] = 9
	if _, _, ok := o.Lookup(5); !ok {
		t.Fatal("OutCAM aliased the message's dest slice")
	}
}
