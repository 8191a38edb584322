package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/pkt"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// A differential scenario must be NON-SATURATING: every source and
// every destination carries strictly less than its link bandwidth, so
// the lossless engine never stalls a source and both simulators are
// source-limited. Under that precondition (asserted at run time via
// Stats.Rejected == 0) delivered counts must match the reference
// EXACTLY; latencies are compared within modelling bands because the
// engine pipelines packets across hops (virtual cut-through) while the
// reference serializes per hop (store-and-forward).

// DiffScenario is one differential test case.
type DiffScenario struct {
	Name string
	// Build returns the topology and the routing tie-break the engine
	// should use (nil = default; the reference computes its own routes
	// either way).
	Build func() (*topo.Topology, route.TieBreak)
	Flows []RefFlow
}

// EngineRun holds the optimized engine's outcome on a scenario, in the
// same per-flow shape as RefResult so the two compare field by field.
type EngineRun struct {
	Net      *network.Network
	Flows    map[int]*RefFlowStats
	Rejected int // generator packets refused by a full AdVOQ
	Drained  bool
	// Violations collects every runtime invariant violation plus the
	// terminal audit's finding.
	Violations []string
}

// drainChunk is the step the drain loop advances by once all
// activation windows have closed.
const drainChunk sim.Cycle = 1 << 15

// maxDrainIters bounds the drain loop; 256 chunks (~8M cycles, ~214 ms
// simulated) of non-delivery on a non-saturating scenario means the
// engine has livelocked, which is itself a differential failure.
const maxDrainIters = 256

// RunEngine executes the scenario on the real engine and drains it:
// after the last activation window closes it keeps running in chunks
// until every offered packet is delivered (or the iteration cap turns
// a livelock into a reported non-drain). Invariant violations —
// including the terminal audit — are collected into
// EngineRun.Violations instead of panicking, so harness layers can
// report them as findings.
//
// An optional tamper hook runs between Build and traffic
// installation; the self-check uses it to seed a deliberate engine
// bug and prove the harness notices.
func RunEngine(t *topo.Topology, p core.Params, opt network.Options, flows []RefFlow, tamper ...func(*network.Network)) (*EngineRun, error) {
	er := &EngineRun{Flows: map[int]*RefFlowStats{}}
	opt.OnViolation = func(v *invariant.Violation) {
		er.Violations = append(er.Violations, v.Error())
	}
	n, err := network.Build(t, p, opt)
	if err != nil {
		return nil, err
	}
	er.Net = n

	tfs := make([]traffic.Flow, len(flows))
	var maxEnd sim.Cycle
	for i, f := range flows {
		tfs[i] = traffic.Flow{ID: f.ID, Src: f.Src, Dst: f.Dst,
			Start: f.Start, End: f.End, Rate: f.Rate, PktSize: f.Size}
		er.Flows[f.ID] = &RefFlowStats{}
		if f.End > maxEnd {
			maxEnd = f.End
		}
	}

	// Chain an exact-latency recorder in front of each node's metrics
	// hook: the Collector keeps log-bucketed histograms, but the
	// differential needs the raw values. Chain each node's own hook (in
	// a partitioned build that is its shard's collector): every flow has
	// one destination, so each *RefFlowStats is written by exactly one
	// node — one shard goroutine — and the map itself is only read.
	for _, nd := range n.Nodes {
		prev := nd.DeliverHook()
		nd.SetDeliverHook(func(pk *pkt.Packet, now sim.Cycle) {
			if st, ok := er.Flows[pk.Flow]; ok {
				st.DeliveredPkts++
				st.DeliveredBytes += pk.Size
				st.Latencies = append(st.Latencies, now-pk.Injected)
			}
			prev(pk, now)
		})
	}
	for _, fn := range tamper {
		fn(n)
	}
	if err := n.AddFlows(tfs); err != nil {
		return nil, err
	}

	n.Run(maxEnd + drainChunk)
	for i := 0; i < maxDrainIters; i++ {
		op, _ := n.TotalOffered()
		dp, _ := n.TotalDelivered()
		if dp >= op {
			er.Drained = true
			break
		}
		n.Run(drainChunk)
	}
	for _, nd := range n.Nodes {
		er.Rejected += nd.Stats().Rejected
	}
	// Let in-flight credit returns land, then audit restitution: an
	// idle lossless network must hold exactly its as-built credit.
	// CheckBounds only catches balances ABOVE capacity (spurious
	// refunds); a leak leaves balances permanently below, which only
	// this post-drain audit can see.
	verr := n.RunAudited(drainChunk)
	if er.Drained {
		er.Violations = append(er.Violations, auditCredits(n, t.NumEndpoints())...)
	}
	if verr != nil {
		er.Violations = append(er.Violations, verr.Error())
	}
	return er, nil
}

// auditCredits verifies every endpoint's uplink pool is back at its
// as-built capacity. Call only on a drained, quiescent network.
func auditCredits(n *network.Network, numDests int) []string {
	var out []string
	for i, nd := range n.Nodes {
		pool := nd.CreditPool()
		if pool == nil {
			continue
		}
		dests := 1
		if pool.PerDest() {
			dests = numDests
		}
		for d := 0; d < dests; d++ {
			if got, want := pool.Avail(d), pool.Capacity(); got != want {
				out = append(out, fmt.Sprintf(
					"post-drain credit audit: node %d dest %d holds %d B of %d B capacity — %d B of credit %s",
					i, d, got, want, abs(got-want), leakOrSurplus(got, want)))
			}
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func leakOrSurplus(got, want int) string {
	if got < want {
		return "leaked"
	}
	return "appeared from nowhere"
}

// LatencyBand bounds how far the engine's latencies may sit from the
// store-and-forward reference. The engine should be FASTER per packet
// (cut-through pipelines hops) but carries real queueing the unbounded
// reference does not model, so the band is asymmetric: a hard analytic
// floor below, a scaled reference ceiling above.
type LatencyBand struct {
	MeanFactor float64 // engine mean <= ref mean * MeanFactor + MeanSlack
	MeanSlack  sim.Cycle
	MaxFactor  float64 // engine max <= ref max * MaxFactor + MaxSlack
	MaxSlack   sim.Cycle
}

// DefaultBand is calibrated on the stock scenarios, where engine/ref
// mean ratios span 0.21–1.64 (the engine wins big on multi-hop paths,
// loses moderately on single-hop ones to pipeline and credit
// round-trip overheads the reference does not model). A regression
// that roughly doubles engine latency escapes the band.
func DefaultBand() LatencyBand {
	return LatencyBand{MeanFactor: 2, MeanSlack: 32, MaxFactor: 2, MaxSlack: 128}
}

// DiffReport is the outcome of one scenario × scheme differential run.
type DiffReport struct {
	Scenario string
	Scheme   string
	// Mismatches lists every violated check, empty on success.
	Mismatches []string
	// RefPkts / EngPkts are total delivered packets on each side.
	RefPkts, EngPkts int
}

// OK reports whether the differential passed.
func (r *DiffReport) OK() bool { return len(r.Mismatches) == 0 }

func (r *DiffReport) String() string {
	if r.OK() {
		return fmt.Sprintf("%s/%s: OK (%d pkts)", r.Scenario, r.Scheme, r.EngPkts)
	}
	s := fmt.Sprintf("%s/%s: %d mismatch(es):", r.Scenario, r.Scheme, len(r.Mismatches))
	for _, m := range r.Mismatches {
		s += "\n  " + m
	}
	return s
}

// RunDiff executes one scenario under one scheme on both simulators
// and compares them: exact per-flow offered/delivered counts and
// bytes, banded latency distributions, and the analytic floor.
// simWorkers selects the engine's partitioned mode (<=1 = serial);
// partitioned runs are byte-identical, so the differential gate
// doubles as an end-to-end check of the parallel engine.
func RunDiff(sc DiffScenario, schemeName string, p core.Params, seed int64, simWorkers int, band LatencyBand) (*DiffReport, error) {
	t, tb := sc.Build()
	rep := &DiffReport{Scenario: sc.Name, Scheme: schemeName}

	rs, err := NewRefSim(t, sc.Flows)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s: reference build: %w", sc.Name, err)
	}
	// The reference has no recurring events: its heap empties once the
	// last packet lands, so an effectively-infinite horizon fully
	// drains every finite activation window.
	ref := rs.Run(sim.Cycle(math.MaxInt64 / 2))
	if !ref.Drained {
		return nil, fmt.Errorf("oracle: %s: reference did not drain (scenario bug)", sc.Name)
	}

	eng, err := RunEngine(t, p, network.Options{Seed: seed, TieBreak: tb, SimWorkers: simWorkers}, sc.Flows)
	if err != nil {
		return nil, fmt.Errorf("oracle: %s/%s: engine build: %w", sc.Name, schemeName, err)
	}

	miss := func(format string, args ...any) {
		rep.Mismatches = append(rep.Mismatches, fmt.Sprintf(format, args...))
	}
	for _, v := range eng.Violations {
		miss("invariant violation: %s", v)
	}
	if eng.Rejected > 0 {
		miss("engine rejected %d packets — scenario saturates, differential precondition broken", eng.Rejected)
	}
	if !eng.Drained {
		op, _ := eng.Net.TotalOffered()
		dp, _ := eng.Net.TotalDelivered()
		miss("engine failed to drain: %d offered, %d delivered after %d extra chunks", op, dp, maxDrainIters)
	}

	for _, id := range flowIDs(ref.Flows) {
		r, e := ref.Flows[id], eng.Flows[id]
		rep.RefPkts += r.DeliveredPkts
		rep.EngPkts += e.DeliveredPkts
		if e.DeliveredPkts != r.DeliveredPkts || e.DeliveredBytes != r.DeliveredBytes {
			miss("flow %d: engine delivered %d pkts / %d B, reference %d pkts / %d B",
				id, e.DeliveredPkts, e.DeliveredBytes, r.DeliveredPkts, r.DeliveredBytes)
			continue
		}
		if r.DeliveredPkts == 0 {
			continue
		}
		for _, l := range e.Latencies {
			if l < r.MinPossible {
				miss("flow %d: engine latency %d cycles beats the analytic floor %d (timing bug)",
					id, l, r.MinPossible)
				break
			}
		}
		em, rm := e.MeanLatency(), r.MeanLatency()
		if limit := rm*band.MeanFactor + float64(band.MeanSlack); em > limit {
			miss("flow %d: engine mean latency %.1f outside band (ref mean %.1f, limit %.1f)",
				id, em, rm, limit)
		}
		ex, rx := e.MaxLatency(), r.MaxLatency()
		if limit := sim.Cycle(float64(rx)*band.MaxFactor) + band.MaxSlack; ex > limit {
			miss("flow %d: engine max latency %d outside band (ref max %d, limit %d)",
				id, ex, rx, limit)
		}
	}
	return rep, nil
}

// flowIDs returns map keys in ascending order so mismatch reports are
// deterministic.
func flowIDs(m map[int]*RefFlowStats) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
