package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func ev(at sim.Cycle, k trace.EventKind, dest int) trace.Event {
	return trace.Event{At: at, Kind: k, Where: "sw:p0", Dest: dest, Arg: 0}
}

func TestRingRetention(t *testing.T) {
	r := trace.NewRing(3)
	for i := 0; i < 5; i++ {
		r.Trace(ev(sim.Cycle(i), trace.EvDetect, i))
	}
	if r.Total() != 5 {
		t.Fatalf("total %d", r.Total())
	}
	got := r.Events()
	if len(got) != 3 {
		t.Fatalf("retained %d", len(got))
	}
	for i, e := range got {
		if e.Dest != i+2 {
			t.Fatalf("events %v: eviction order wrong", got)
		}
	}
	// Partially filled ring.
	r2 := trace.NewRing(10)
	r2.Trace(ev(0, trace.EvStop, 1))
	if len(r2.Events()) != 1 {
		t.Fatal("partial ring wrong")
	}
}

func TestRingCapacityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity accepted")
		}
	}()
	trace.NewRing(0)
}

func TestWriterFormats(t *testing.T) {
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.Trace(ev(39063, trace.EvDetect, 4)) // ~1 ms
	w.Trace(trace.Event{At: 0, Kind: trace.EvBECN, Where: "node3", Dest: 4, Arg: 7})
	w.Trace(trace.Event{At: 0, Kind: trace.EvCongestionOn, Where: "sw:p1"})
	out := buf.String()
	for _, want := range []string{"detect", "1.000ms", "becn", "ccti=7", "congestion-on"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// kinds tallies a ring's retained events per kind.
func kinds(r *trace.Ring) map[trace.EventKind]int {
	counts := map[trace.EventKind]int{}
	for _, e := range r.Events() {
		counts[e.Kind]++
	}
	return counts
}

func TestOnly(t *testing.T) {
	r := trace.NewRing(8)
	f := trace.Only(r, trace.EvStop, trace.EvGo)
	f.Trace(ev(0, trace.EvStop, 1))
	f.Trace(ev(0, trace.EvGo, 1))
	f.Trace(ev(0, trace.EvDetect, 1)) // filtered out
	if c := kinds(r); c[trace.EvStop] != 1 || c[trace.EvGo] != 1 || c[trace.EvDetect] != 0 {
		t.Fatalf("filter broken: %v", c)
	}
}

func TestEventKindStrings(t *testing.T) {
	names := map[trace.EventKind]string{
		trace.EvDetect: "detect", trace.EvLazyAlloc: "lazy-alloc",
		trace.EvPropagate: "propagate", trace.EvStop: "stop", trace.EvGo: "go",
		trace.EvDealloc: "dealloc", trace.EvDemote: "demote",
		trace.EvCongestionOn: "congestion-on", trace.EvCongestionOff: "congestion-off",
		trace.EvMark: "mark", trace.EvBECN: "becn", trace.EvExhaust: "exhaust",
	}
	for k, want := range names {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if trace.EventKind(99).String() != "event(?)" {
		t.Fatal("unknown kind")
	}
}

// TestEndToEndTrace runs a hot spot under CCFIT with a tracer attached
// and checks the protocol appears in the right order: detection before
// propagation before stop, marking only during the congestion state,
// BECNs after marks, deallocation after the traffic stops.
func TestEndToEndTrace(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	p := core.PresetCCFIT()
	p.Tracer = ring
	n, err := network.Build(topo.Config1(), p, network.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	err = n.AddFlows([]traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: 60_000, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: 60_000, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: 60_000, Rate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(200_000)

	if ring.Total() > len(ring.Events()) {
		t.Fatalf("ring evicted: %d events traced", ring.Total())
	}
	counts := kinds(ring)
	for _, k := range []trace.EventKind{
		trace.EvDetect, trace.EvPropagate, trace.EvStop, trace.EvGo,
		trace.EvCongestionOn, trace.EvCongestionOff, trace.EvMark,
		trace.EvBECN, trace.EvDealloc,
	} {
		if counts[k] == 0 {
			t.Fatalf("no %v events in a congested CCFIT run", k)
		}
	}
	// Ordering of firsts.
	first := map[trace.EventKind]sim.Cycle{}
	for _, e := range ring.Events() {
		if _, ok := first[e.Kind]; !ok {
			first[e.Kind] = e.At
		}
	}
	if !(first[trace.EvDetect] <= first[trace.EvPropagate]) {
		t.Fatal("propagation before any detection")
	}
	if !(first[trace.EvCongestionOn] <= first[trace.EvMark]) {
		t.Fatal("mark before entering the congestion state")
	}
	if !(first[trace.EvMark] < first[trace.EvBECN]) {
		t.Fatal("BECN before any mark")
	}
	// Every mark names the hot destination.
	for _, e := range ring.Events() {
		if e.Kind == trace.EvMark && e.Dest != 4 {
			t.Fatalf("marked a non-hot destination: %+v", e)
		}
		if e.Kind == trace.EvBECN && e.Dest != 4 {
			t.Fatalf("BECN for a non-hot destination: %+v", e)
		}
	}
}
