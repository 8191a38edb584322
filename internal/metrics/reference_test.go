package metrics

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// refCollector is the map-of-slices collector the one-record-per-flow
// Collector replaced, kept as the reference it is held to: per-flow bins
// grown one bin at a time from bin 0 in a map, FCT records in a second map.
type refCollector struct {
	c         *Collector // for binCycles and gbPerSec only
	flowBins  map[int][]int64
	totalBins []int64
	fct       map[int]*refFCT
}

type refFCT struct {
	size, delivered      int64
	start, ideal, finish sim.Cycle
	done                 bool
}

func newRef(binCycles sim.Cycle) *refCollector {
	return &refCollector{c: New(binCycles, 4, 64), flowBins: map[int][]int64{}}
}

func refGrow(s []int64, idx int) []int64 {
	for len(s) <= idx {
		s = append(s, 0)
	}
	return s
}

func (r *refCollector) register(flow int, size int64, start, ideal sim.Cycle) {
	if ideal < 1 {
		ideal = 1
	}
	if r.fct == nil {
		r.fct = map[int]*refFCT{}
	}
	r.fct[flow] = &refFCT{size: size, start: start, ideal: ideal}
}

func (r *refCollector) delivered(p *pkt.Packet, now sim.Cycle) {
	bin := int(now / r.c.binCycles)
	r.totalBins = refGrow(r.totalBins, bin)
	r.totalBins[bin] += int64(p.Size)
	if p.Flow < 0 {
		return
	}
	fb := refGrow(r.flowBins[p.Flow], bin)
	fb[bin] += int64(p.Size)
	r.flowBins[p.Flow] = fb
	if f, ok := r.fct[p.Flow]; ok && !f.done {
		if f.delivered += int64(p.Size); f.delivered >= f.size {
			f.done, f.finish = true, now
		}
	}
}

func (r *refCollector) flows() []int {
	ids := make([]int, 0, len(r.flowBins))
	for id := range r.flowBins {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (r *refCollector) series(bins []int64, want int) []float64 {
	out := make([]float64, max(len(bins), want))
	for i, b := range bins {
		out[i] = r.c.gbPerSec(b)
	}
	return out
}

func (r *refCollector) fctStats() *FCTStats {
	if len(r.fct) == 0 {
		return nil
	}
	st := &FCTStats{Registered: int64(len(r.fct)), Buckets: defaultFCTBuckets()}
	ids := make([]int, 0, len(r.fct))
	for id := range r.fct {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	type sample struct {
		slowdown, fctNS float64
		size            int64
	}
	var samples []sample
	for _, id := range ids {
		f := r.fct[id]
		if !f.done {
			st.Incomplete++
			continue
		}
		st.Completed++
		fct := max(f.finish-f.start, 1)
		samples = append(samples, sample{float64(fct) / float64(f.ideal), sim.NSFromCycles(fct), f.size})
	}
	fill := func(b *FCTBucket, xs []sample) {
		b.Completed = int64(len(xs))
		if len(xs) == 0 {
			return
		}
		sd := make([]float64, len(xs))
		var sumSD, sumNS float64
		for i, x := range xs {
			sd[i] = x.slowdown
			sumSD += x.slowdown
			sumNS += x.fctNS
		}
		sort.Float64s(sd)
		b.MeanSlowdown = sumSD / float64(len(xs))
		b.P50Slowdown = percentile(sd, 0.50)
		b.P99Slowdown = percentile(sd, 0.99)
		b.MaxSlowdown = sd[len(sd)-1]
		b.MeanFCTNS = sumNS / float64(len(xs))
	}
	fill(&st.Overall, samples)
	st.Overall.Label, st.Overall.MaxBytes = "all", math.MaxInt64
	for i := range st.Buckets {
		b := &st.Buckets[i]
		lo := int64(0)
		if i > 0 {
			lo = st.Buckets[i-1].MaxBytes
		}
		var xs []sample
		for _, x := range samples {
			if x.size > lo && x.size <= b.MaxBytes {
				xs = append(xs, x)
			}
		}
		fill(b, xs)
	}
	return st
}

// TestCollectorEqualsReference feeds the Collector and the reference the
// same scripted run — flows declared in random id order (CBR and finite,
// finite ones registered for FCT), flows nobody declared, BECNs, first
// deliveries late in the run and past the horizon — and requires
// FlowSeries, TotalSeries, Flows and FCTStats to be bit-equal.
func TestCollectorEqualsReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bin := sim.Cycle(1 + rng.Intn(200))
		horizon := sim.Cycle(1 + rng.Intn(40_000))
		c, ref := New(bin, 4, 64), newRef(bin)

		type flow struct {
			id    int
			bytes int64
		}
		var flows []flow
		for _, id := range rng.Perm(1 + rng.Intn(60)) {
			f := flow{id: id * (1 + rng.Intn(3))}
			if rng.Intn(2) == 0 {
				f.bytes = 1 + rng.Int63n(20_000)
			}
			if seen := func() bool {
				for _, g := range flows {
					if g.id == f.id {
						return true
					}
				}
				return false
			}(); !seen {
				flows = append(flows, f)
			}
		}
		c.Expect(len(flows))
		for _, f := range flows {
			start, ideal := sim.Cycle(rng.Intn(1000)), sim.Cycle(rng.Intn(500))
			end := start + 1 + sim.Cycle(rng.Int63n(int64(horizon)))
			if err := c.Declare(f.id, f.bytes, start, end, ideal); err != nil {
				t.Fatal(err)
			}
			if f.bytes > 0 {
				ref.register(f.id, f.bytes, start, ideal)
			}
		}

		var g pkt.IDGen
		now := sim.Cycle(0)
		for k := rng.Intn(2000); k > 0; k-- {
			now += sim.Cycle(rng.Intn(int(horizon/100) + 2))
			id := -1 // a BECN
			switch r := rng.Intn(10); {
			case r < 7 && len(flows) > 0:
				id = flows[rng.Intn(len(flows))].id
			case r < 9:
				id = 1000 + rng.Intn(5) // never declared
			}
			p := pkt.NewData(&g, 0, 1, id, 1+rng.Intn(pkt.MTU), 0)
			c.Delivered(p, now)
			ref.delivered(p, now)
		}

		if got, want := c.Flows(), ref.flows(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Flows %v, reference %v", seed, got, want)
		}
		pad := rng.Intn(int(now/bin) + 3)
		if got, want := c.TotalSeries(pad), ref.series(ref.totalBins, pad); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: TotalSeries(%d) differs", seed, pad)
		}
		for _, id := range append(ref.flows(), -1, 999, 1004) {
			if got, want := c.FlowSeries(id, pad), ref.series(ref.flowBins[id], pad); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: FlowSeries(%d, %d) = %v, reference %v", seed, id, pad, got, want)
			}
		}
		if got, want := c.FCTStats(), ref.fctStats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: FCTStats\n%+v\nreference\n%+v", seed, got, want)
		}
	}
}
