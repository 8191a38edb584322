package metrics

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// register declares finite flow id as network.AddFlows does.
func register(t *testing.T, c *Collector, flow int, size int64, start, ideal sim.Cycle) {
	t.Helper()
	if err := c.Declare(flow, size, start, start+1, ideal); err != nil {
		t.Fatal(err)
	}
}

func deliver(c *Collector, flow, size int, now sim.Cycle) {
	c.Delivered(&pkt.Packet{Flow: flow, Size: size, Injected: now}, now)
}

func TestFCTNoneRegistered(t *testing.T) {
	c := New(100, 4, 64)
	deliver(c, 0, 2048, 10)
	if st := c.FCTStats(); st != nil {
		t.Fatalf("CBR-only collector reported FCT stats %+v", st)
	}
}

func TestFCTSingleFlow(t *testing.T) {
	c := New(100, 4, 64)
	register(t, c, 7, 5000, 10, 100)
	deliver(c, 7, 2048, 50)
	deliver(c, 7, 2048, 80)
	st := c.FCTStats()
	if st == nil || st.Completed != 0 || st.Incomplete != 1 {
		t.Fatalf("mid-flight stats %+v", st)
	}
	deliver(c, 7, 904, 210)
	st = c.FCTStats()
	if st.Completed != 1 || st.Incomplete != 0 || st.Registered != 1 {
		t.Fatalf("completed stats %+v", st)
	}
	// FCT = 210-10 = 200 cycles over ideal 100 → slowdown 2; a single
	// sample is its own P50, P99, mean and max (no NaN, no interpolation
	// surprises).
	o := st.Overall
	if o.MeanSlowdown != 2 || o.P50Slowdown != 2 || o.P99Slowdown != 2 || o.MaxSlowdown != 2 {
		t.Fatalf("single-flow slowdowns %+v", o)
	}
	if want := sim.NSFromCycles(200); o.MeanFCTNS != want {
		t.Fatalf("mean FCT %v ns, want %v", o.MeanFCTNS, want)
	}
	// 5000 bytes lands in the <=10KB bucket; the others stay zeroed.
	if st.Buckets[0].Completed != 1 || st.Buckets[1].Completed != 0 {
		t.Fatalf("bucket assignment %+v", st.Buckets)
	}
	if st.Buckets[1].P99Slowdown != 0 {
		t.Fatalf("empty bucket has non-zero percentile: %+v", st.Buckets[1])
	}
}

func TestFCTZeroCompleted(t *testing.T) {
	c := New(100, 4, 64)
	register(t, c, 1, 1000, 0, 50)
	register(t, c, 2, 2000, 0, 50)
	st := c.FCTStats()
	if st.Completed != 0 || st.Incomplete != 2 {
		t.Fatalf("stats %+v", st)
	}
	for _, v := range []float64{st.Overall.MeanSlowdown, st.Overall.P50Slowdown, st.Overall.P99Slowdown, st.Overall.MeanFCTNS} {
		if v != 0 || math.IsNaN(v) {
			t.Fatalf("zero-completed overall not zeroed: %+v", st.Overall)
		}
	}
}

func TestFCTBucketBoundaries(t *testing.T) {
	c := New(100, 4, 64)
	// One flow per size class, boundary-exact: 10_000 is still short,
	// 10_001 is medium.
	sizes := []int64{10_000, 10_001, 1_000_000, 1_000_001}
	for i, sz := range sizes {
		register(t, c, i, sz, 0, 10)
		deliver(c, i, int(sz%2048)+1, 20) // partial
		r := &c.recs[c.index[i]]
		r.delivered = sz // finish it directly; byte math tested elsewhere
		r.done, r.finish = true, 30
	}
	st := c.FCTStats()
	var got []int64
	for _, b := range st.Buckets {
		got = append(got, b.Completed)
	}
	if want := []int64{1, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("bucket counts %v, want %v", got, want)
	}
}

func TestFCTPercentilesExact(t *testing.T) {
	c := New(100, 4, 64)
	// 100 flows with slowdowns 1.0, 2.0, ..., 100.0 (ideal 10, FCT 10*i).
	for i := 1; i <= 100; i++ {
		register(t, c, i, 2048, 0, 10)
		deliver(c, i, 2048, sim.Cycle(10*i))
	}
	st := c.FCTStats()
	if st.Overall.P50Slowdown != 50 {
		t.Fatalf("P50 %v, want 50 (exact order statistic)", st.Overall.P50Slowdown)
	}
	if st.Overall.P99Slowdown != 99 {
		t.Fatalf("P99 %v, want 99", st.Overall.P99Slowdown)
	}
	if st.Overall.MaxSlowdown != 100 {
		t.Fatalf("max %v, want 100", st.Overall.MaxSlowdown)
	}
}

// A finite flow's id is declared once: a second finite declaration is
// the error network.AddFlows returns, and leaves the first one standing.
// A CBR flow may share an id, as it always could.
func TestFCTDeclareTwiceFails(t *testing.T) {
	c := New(100, 4, 64)
	register(t, c, 1, 1000, 0, 10)
	if err := c.Declare(1, 2000, 5, 6, 20); err == nil || !strings.Contains(err.Error(), "share id 1") {
		t.Fatalf("second finite declaration of flow 1: %v", err)
	}
	if err := c.Declare(1, 0, 0, 1, 0); err != nil {
		t.Fatalf("CBR declaration sharing a finite flow's id: %v", err)
	}
	if r := c.recs[c.index[1]]; len(c.recs) != 1 || r.size != 1000 || r.ideal != 10 {
		t.Fatalf("records after the duplicates: %+v", c.recs)
	}
}
