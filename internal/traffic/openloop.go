package traffic

import (
	"fmt"
	"math"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// openLoopSalt decorrelates the schedule-building RNG streams from the
// network-component streams derived off the same user seed: the
// schedule is drawn from a throwaway engine seeded with seed^salt, so
// adding or removing open-loop sources never shifts any simulation
// stream, and the schedule itself is a pure function of (seed, spec) —
// independent of build order or anything else.
const openLoopSalt = 0x6f70656e6c6f6f70 // "openloop"

// OpenLoop describes a CDF-driven open-loop workload: each source runs
// an independent Poisson arrival process at a target offered load, and
// every arrival is a finite flow whose size is drawn from an empirical
// flow-size CDF — the standard datacenter traffic model (ns-3 CONGA
// recipe). Flows() pre-computes the whole schedule deterministically;
// the result feeds NewGenerator unchanged.
type OpenLoop struct {
	// Sources lists the injecting endpoints, in order; each gets its own
	// RNG stream.
	Sources []int
	// NumEndpoints is the endpoint count of the fabric (needed to draw
	// uniform destinations and validate Dst).
	NumEndpoints int
	// Dst is the fixed destination endpoint (incast), or UniformDst to
	// draw a fresh uniform destination (excluding the source) per flow.
	Dst int
	// CDF supplies flow sizes in bytes.
	CDF *CDF
	// Load is the target offered load per source as a fraction of its
	// injection-link bandwidth, in (0,1).
	Load float64
	// BytesPerCycle is the source injection-link bandwidth (used to
	// convert Load into a flow arrival rate via CDF.Mean).
	BytesPerCycle int
	// Start and End bound the arrival window: arrivals are generated in
	// [Start, End); each flow's activation window then runs to Horizon.
	Start, End sim.Cycle
	// Horizon is the cycle after which even unfinished flows stop
	// injecting (typically the experiment duration). Zero means End.
	Horizon sim.Cycle
	// PktSize is the packet size in bytes (default MTU if zero).
	PktSize int
	// BaseID numbers the generated flows BaseID, BaseID+1, ... in
	// source-major order.
	BaseID int
	// Seed is the user-level seed; the schedule stream is salted off it.
	Seed int64
}

// Rate returns the per-source flow arrival rate in flows/cycle implied
// by the target load: Load·BytesPerCycle bytes/cycle divided by the
// mean flow size.
func (o *OpenLoop) Rate() float64 {
	return o.Load * float64(o.BytesPerCycle) / o.CDF.Mean()
}

// Flows builds the full deterministic schedule. Each source draws from
// its own RNG stream (derived in Sources order from the salted
// schedule engine), so the result is byte-identical across runs.
func (o *OpenLoop) Flows() ([]Flow, error) {
	if o.CDF == nil {
		return nil, fmt.Errorf("traffic: open-loop spec has no CDF")
	}
	if len(o.Sources) == 0 {
		return nil, fmt.Errorf("traffic: open-loop spec has no sources")
	}
	if o.Load <= 0 || o.Load >= 1 {
		return nil, fmt.Errorf("traffic: open-loop load %v outside (0,1)", o.Load)
	}
	if o.BytesPerCycle <= 0 {
		return nil, fmt.Errorf("traffic: open-loop bytes/cycle %d not positive", o.BytesPerCycle)
	}
	if o.End <= o.Start {
		return nil, fmt.Errorf("traffic: open-loop window [%d,%d) empty", o.Start, o.End)
	}
	horizon := o.Horizon
	if horizon == 0 {
		horizon = o.End
	}
	if horizon < o.End {
		return nil, fmt.Errorf("traffic: open-loop horizon %d before window end %d", horizon, o.End)
	}
	pktSize := o.PktSize
	if pktSize == 0 {
		pktSize = pkt.MTU
	}
	lambda := o.Rate()

	// One throwaway engine derives all schedule streams; it is never
	// ticked, only used for RNG() derivation.
	sched := sim.NewEngine(o.Seed ^ openLoopSalt)
	// Room for the expected arrivals plus three standard deviations, so
	// the schedule rarely outgrows it, and for no more than 64k up front.
	expect := lambda * float64(o.End-o.Start) * float64(len(o.Sources))
	flows := make([]Flow, 0, int(min(expect+3*math.Sqrt(expect)+1, 1<<16)))
	id := o.BaseID
	for _, src := range o.Sources {
		if src < 0 || src >= o.NumEndpoints {
			return nil, fmt.Errorf("traffic: open-loop source %d outside [0,%d)", src, o.NumEndpoints)
		}
		rng := sched.RNG()
		// Poisson process: exponential inter-arrival gaps at rate lambda.
		// The first arrival sits one gap into the window, matching the
		// stationary process observed from a random origin.
		t := float64(o.Start)
		for {
			t += rng.ExpFloat64() / lambda
			start := sim.Cycle(math.Ceil(t))
			if start >= o.End {
				break
			}
			size := o.CDF.Sample(rng)
			dst := o.Dst
			if dst == UniformDst {
				// Drawn here (not per-packet in the generator) so the
				// schedule — including destinations — is fixed before the run.
				dst = rng.Intn(o.NumEndpoints - 1)
				if dst >= src {
					dst++
				}
			} else if dst == src {
				return nil, fmt.Errorf("traffic: open-loop source %d targets itself", src)
			}
			flows = append(flows, Flow{
				ID:      id,
				Src:     src,
				Dst:     dst,
				Start:   start,
				End:     horizon,
				Rate:    1.0, // open-loop flows burst at full link rate
				PktSize: pktSize,
				Bytes:   size,
			})
			id++
		}
	}
	return flows, nil
}
