package oracle

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// The metamorphic properties: relations that must hold for EVERY
// configuration, derived from the lossless-network model and the
// paper's claims rather than from pinned outputs. Unlike the golden
// digests (which detect change) these detect wrongness — a refactor
// can legitimately move a digest, but it can never make packets
// disappear or make throttling speed a flow up.

// relabelOffset separates the original flow-id namespace from the
// relabeled one (fuzzed configs use small ids).
const relabelOffset = 100_000

// seedStride is the seed perturbation for the seed-invariance
// property (any nonzero value works; a prime avoids accidentally
// colliding with the ±1 seed ladders used by replication runs).
const seedStride = 1009

// CheckConfig runs every per-config metamorphic property against one
// fuzzed configuration and returns the violated ones (empty = pass):
//
//  1. Conservation: after the drain the engine has delivered exactly
//     what it accepted — per flow and in total — with zero runtime
//     invariant violations. Holds for ANY config on a lossless fabric.
//  2. Reference agreement: when no source ever stalled, per-flow
//     delivered counts equal the reference simulator's (the fuzzed
//     extension of the differential).
//  3. Seed invariance: fixed-destination traffic is source-limited
//     when nothing stalls, so delivered counts cannot depend on the
//     RNG seed (only latencies may). Skipped when either run stalls.
//  4. Relabeling invariance: flow ids are metric labels; renaming
//     every flow must permute the per-flow results and change nothing
//     else, stalls included.
func CheckConfig(cfg FuzzConfig) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}

	t, err := TopoByName(cfg.Topo)
	if err != nil {
		return []error{err}
	}
	p, err := experiments.SchemeByName(cfg.Scheme)
	if err != nil {
		return []error{err}
	}

	base, err := RunEngine(t, p, network.Options{Seed: cfg.Seed}, cfg.Flows)
	if err != nil {
		return []error{fmt.Errorf("base run: %w", err)}
	}

	// Property 1: conservation.
	for _, v := range base.Violations {
		fail("conservation: invariant violation: %s", v)
	}
	if !base.Drained {
		op, _ := base.Net.TotalOffered()
		dp, _ := base.Net.TotalDelivered()
		fail("conservation: network did not drain (%d offered, %d delivered)", op, dp)
	}
	op, ob := base.Net.TotalOffered()
	dp, db := base.Net.TotalDelivered()
	if base.Drained && (op != dp || ob != db) {
		fail("conservation: offered %d pkts/%d B, delivered %d pkts/%d B", op, ob, dp, db)
	}

	// Property 2: reference agreement (unstalled runs only).
	if base.Rejected == 0 {
		rs, rerr := NewRefSim(t, cfg.Flows)
		if rerr != nil {
			fail("reference build: %v", rerr)
		} else {
			ref := rs.Run(sim.Cycle(math.MaxInt64 / 2))
			for _, id := range flowIDs(ref.Flows) {
				r, e := ref.Flows[id], base.Flows[id]
				if e.DeliveredPkts != r.OfferedPkts || e.DeliveredBytes != r.OfferedBytes {
					fail("reference agreement: flow %d delivered %d pkts/%d B, reference emits %d pkts/%d B",
						id, e.DeliveredPkts, e.DeliveredBytes, r.OfferedPkts, r.OfferedBytes)
				}
			}
		}
	}

	// Property 3: seed invariance.
	if base.Rejected == 0 {
		reseeded, rerr := RunEngine(t, p, network.Options{Seed: cfg.Seed + seedStride}, cfg.Flows)
		if rerr != nil {
			fail("reseeded run: %v", rerr)
		} else if reseeded.Rejected == 0 {
			for _, id := range flowIDs(base.Flows) {
				a, b := base.Flows[id], reseeded.Flows[id]
				if a.DeliveredPkts != b.DeliveredPkts || a.DeliveredBytes != b.DeliveredBytes {
					fail("seed invariance: flow %d delivered %d pkts at seed %d but %d at seed %d",
						id, a.DeliveredPkts, cfg.Seed, b.DeliveredPkts, cfg.Seed+seedStride)
				}
			}
		}
	}

	// Property 4: relabeling invariance.
	renamed := make([]RefFlow, len(cfg.Flows))
	for i, f := range cfg.Flows {
		f.ID += relabelOffset
		renamed[i] = f
	}
	relab, err := RunEngine(t, p, network.Options{Seed: cfg.Seed}, renamed)
	if err != nil {
		fail("relabeled run: %v", err)
	} else {
		if relab.Rejected != base.Rejected {
			fail("relabeling: %d rejections became %d after renaming flow ids", base.Rejected, relab.Rejected)
		}
		for _, id := range flowIDs(base.Flows) {
			a, b := base.Flows[id], relab.Flows[id+relabelOffset]
			if b == nil {
				fail("relabeling: flow %d missing after renaming", id)
				continue
			}
			if a.DeliveredPkts != b.DeliveredPkts || a.DeliveredBytes != b.DeliveredBytes {
				fail("relabeling: flow %d delivered %d pkts, renamed twin %d delivered %d",
					id, a.DeliveredPkts, id+relabelOffset, b.DeliveredPkts)
			}
		}
	}
	return errs
}

// hotspotFlows is a compressed Case #1-style hot spot on Config #1:
// a full-rate victim plus four sources piling onto end-node 4, all
// windows shrunk so the run fits in a property check.
func hotspotFlows(end sim.Cycle) []RefFlow {
	warm := end / 8
	return []RefFlow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0, Size: 2048},
		{ID: 1, Src: 1, Dst: 4, Start: warm, End: end, Rate: 1.0, Size: 2048},
		{ID: 2, Src: 2, Dst: 4, Start: warm, End: end, Rate: 1.0, Size: 2048},
		{ID: 3, Src: 5, Dst: 4, Start: 2 * warm, End: end, Rate: 1.0, Size: 2048},
		{ID: 4, Src: 6, Dst: 4, Start: 2 * warm, End: end, Rate: 1.0, Size: 2048},
	}
}

// hotspotSeed and hotspotTol are the seed and the relative tolerance
// of the hot-spot checks (CheckIRDStepMonotonic and the dominance
// claims); the tolerance absorbs arbitration noise.
const (
	hotspotSeed int64 = 1
	hotspotTol        = 0.05
)

// CheckCCTMonotonic asserts the CCT-depth ⇒ injection-rate relation
// at the unit level, with no simulator in the loop: a deeper CCT
// index can never allow MORE injections over the same horizon. This
// is exact (no tolerance) because the gate is deterministic.
func CheckCCTMonotonic() []error {
	var errs []error
	p := core.PresetCCFIT()
	eng := sim.NewEngine(1)
	th := core.NewThrottler(eng, &p, 2)

	// The table itself must be non-decreasing.
	prev := sim.Cycle(-1)
	for i := 0; i < p.CCTEntries; i++ {
		forceCCTI(th, 0, i)
		if ird := th.IRD(0); ird < prev {
			errs = append(errs, fmt.Errorf("cct: IRD(ccti=%d)=%d < IRD(ccti=%d)=%d — table not monotone",
				i, ird, i-1, prev))
		} else {
			prev = ird
		}
	}

	// Simulated gate: count admissible injections over a fixed horizon
	// for increasing forced depths.
	const horizon = 4096
	prevCount := math.MaxInt
	for _, depth := range []int{0, 1, 2, 4, 8, p.CCTEntries - 1} {
		count := 0
		gate := core.NewThrottler(eng, &p, 2)
		forceCCTI(gate, 0, depth)
		for now := sim.Cycle(0); now < horizon; now++ {
			if gate.MayInject(0, now) {
				gate.Injected(0, now)
				count++
			}
		}
		if count > prevCount {
			errs = append(errs, fmt.Errorf("cct: depth %d admits %d injections, shallower depth admitted %d — throttling sped a flow up",
				depth, count, prevCount))
		}
		prevCount = count
	}
	return errs
}

// forceCCTI drives a throttler's index for dst to exactly `depth` via
// the public BECN interface (CCTIIncrease per event, no timer decay
// because the engine never runs).
func forceCCTI(t *core.Throttler, dst, depth int) {
	for t.CCTI(dst) < depth {
		before := t.CCTI(dst)
		t.OnBECN(dst)
		if t.CCTI(dst) == before {
			return // table ceiling reached
		}
	}
}

// CheckIRDStepMonotonic is the simulation-level CCT relation: on the
// hot-spot scenario under CCFIT, multiplying the CCT's rate-delay
// step must not INCREASE the hot flows' delivered bytes (stronger
// throttling can only slow the congested flows down, within
// hotspotTol). It runs three simulations, so its test skips in -short.
func CheckIRDStepMonotonic() []error {
	var errs []error
	end := sim.CyclesFromMS(0.75)
	flows := hotspotFlows(end)
	prevHot := math.Inf(1)
	prevStep := sim.Cycle(0)
	base := core.PresetCCFIT()
	for _, mult := range []sim.Cycle{1, 4, 16} {
		p := base
		p.IRDStep = base.IRDStep * mult
		run, err := RunEngine(topo.Config1(), p, network.Options{Seed: hotspotSeed}, flows)
		if err != nil {
			return []error{fmt.Errorf("irdstep: %w", err)}
		}
		hot := 0.0
		for _, id := range []int{1, 2, 3, 4} {
			hot += float64(run.Flows[id].DeliveredBytes)
		}
		if hot > prevHot*(1+hotspotTol) {
			errs = append(errs, fmt.Errorf(
				"irdstep: step %d delivers %.0f hot-flow bytes, smaller step %d delivered %.0f — deeper throttling increased the congested rate",
				p.IRDStep, hot, prevStep, prevHot))
		}
		prevHot, prevStep = hot, p.IRDStep
	}
	return errs
}
