package oracle

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// A differential scenario must be NON-SATURATING: every source and
// every destination carries strictly less than its link bandwidth, so
// the lossless engine never stalls a source and both simulators are
// source-limited. Under that precondition (asserted at run time via
// Stats.Rejected == 0) delivered counts match the reference exactly,
// and latencies as the package doc says: packet for packet on an
// unshared path, within one MTU serialization of the mean on a shared one.

// DiffScenario is one differential test case.
type DiffScenario struct {
	Name string
	// Build returns the topology, routed by its own rule; the reference
	// computes its own routes.
	Build func() *topo.Topology
	Flows []RefFlow
}

// EngineRun holds the optimized engine's outcome on a scenario, in the
// same per-flow shape as RefResult so the two compare field by field.
type EngineRun struct {
	Net      *network.Network
	Flows    map[int]*RefFlowStats
	Rejected int // source attempts refused by a full AdVOQ
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

// traffic is the flow as the engine's traffic package takes it.
func (f RefFlow) traffic() traffic.Flow {
	return traffic.Flow{ID: f.ID, Src: f.Src, Dst: f.Dst, Start: f.Start, End: f.End, Rate: f.Rate, PktSize: f.Size}
}

// RunEngine executes the scenario on the real engine and drains it:
// after the last activation window closes it keeps running in chunks
// until every offered packet is delivered (or the iteration cap turns
// a livelock into a reported non-drain). Invariant violations —
// including the terminal audit — are collected into
// EngineRun.Violations instead of panicking, so harness layers can
// report them as findings.
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
		tfs[i] = f.traffic()
		er.Flows[f.ID] = &RefFlowStats{}
		if f.End > maxEnd {
			maxEnd = f.End
		}
	}

	// Chain an exact-latency recorder in front of each node's metrics
	// hook: the Collector keeps log-bucketed histograms, but the
	// differential needs the raw values.
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
// bytes, exact latencies on unshared paths, mean latencies on shared
// ones, and the analytic floor.
func RunDiff(sc DiffScenario, schemeName string, p core.Params, seed int64) (*DiffReport, error) {
	t := sc.Build()
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

	eng, err := RunEngine(t, p, network.Options{Seed: seed}, sc.Flows)
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

	// shared[id]: the flow's path shares a directed link with a flow
	// whose activation window overlaps its own.
	shared, onLink := map[int]bool{}, map[int][]RefFlow{}
	for _, f := range sc.Flows {
		for _, li := range rs.path(f.Src, f.Dst) {
			for _, g := range onLink[li] {
				if f.Start < g.End && g.Start < f.End {
					shared[f.ID], shared[g.ID] = true, true
				}
			}
			onLink[li] = append(onLink[li], f)
		}
	}
	slowest := math.MaxInt
	for _, l := range t.Links {
		slowest = min(slowest, l.BytesPerCycle)
	}
	mtuSer := float64(ser(pkt.MTU, slowest))

	for _, id := range flowIDs(ref.Flows) {
		r, e := ref.Flows[id], eng.Flows[id]
		rep.RefPkts += r.DeliveredPkts
		rep.EngPkts += e.DeliveredPkts
		if e.DeliveredPkts != r.DeliveredPkts || e.DeliveredBytes != r.DeliveredBytes {
			miss("flow %d: engine delivered %d pkts / %d B, reference %d pkts / %d B",
				id, e.DeliveredPkts, e.DeliveredBytes, r.DeliveredPkts, r.DeliveredBytes)
			continue
		}
		for i, l := range e.Latencies {
			if l < r.MinPossible || !shared[id] && l != r.Latencies[i] {
				miss("flow %d: engine packet %d took %d cycles, reference %d, analytic floor %d",
					id, i, l, r.Latencies[i], r.MinPossible)
				break
			}
		}
		if em, rm := e.MeanLatency(), r.MeanLatency(); shared[id] && math.Abs(em-rm) > mtuSer {
			miss("flow %d: engine mean latency %.1f, reference %.1f: more than one MTU serialization (%.0f) apart",
				id, em, rm, mtuSer)
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
