// Package core implements the paper's primary contribution: the CCFIT
// congestion-management machinery that switch ports and input adapters
// compose — congested-flow isolation (NFQ + CFQs + CAMs with hop-by-hop
// congestion-information propagation and per-CFQ Stop/Go flow control,
// the FBICM part) and InfiniBand-style injection throttling (FECN
// marking governed by a two-threshold congestion state, BECN
// notification, and CCT/CCTI/Timer/LTI rate control at the sources).
// The paper's five evaluated schemes (1Q, FBICM, ITh, CCFIT, VOQnet)
// and the extra related-work baselines (DBBM, standalone VOQsw, OBQA)
// are parameter presets over this machinery.
package core

import (
	"fmt"

	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Discipline selects the queue organisation of a port RAM.
type Discipline uint8

const (
	// OneQ is a single FIFO per input port: no HoL-blocking reduction
	// at all (the paper's "1Q" baseline).
	OneQ Discipline = iota
	// VOQSw is virtual output queueing at switch level: one queue per
	// output port (used by the paper's ITh configuration, 8 VOQs).
	VOQSw
	// VOQNet is virtual output queueing at network level: one queue
	// per destination endpoint (the paper's near-ideal reference).
	VOQNet
	// DBBM is destination-based buffer management: queue = dest mod N.
	// Not evaluated in the paper's figures but cited as related work;
	// included as an extra baseline.
	DBBM
	// OBQA is output-based queue assignment (Escudero-Sahuquillo et al.,
	// Euro-Par 2010, cited as [26]): queue = the output port requested at
	// the next switch, which in fat trees separates flows that diverge
	// one hop ahead — fewer queues than VOQsw for comparable HoL
	// reduction. Extra baseline.
	OBQA
	// NFQCFQ is the FBICM/CCFIT organisation: one normal-flow queue
	// plus a small number of dynamically managed congested-flow queues
	// tracked by a CAM.
	NFQCFQ
)

func (d Discipline) String() string {
	if int(d) < len(disciplines) {
		return disciplines[d].name
	}
	return fmt.Sprintf("disc(%d)", uint8(d))
}

// Params bundles every tunable of the congestion-management machinery.
// Zero value is not valid; start from a preset (Preset1Q, PresetFBICM,
// PresetITh, PresetCCFIT, PresetVOQnet, PresetDBBM, PresetVOQswOnly,
// PresetOBQA) and override.
type Params struct {
	Name string
	Disc Discipline

	// PortRAM is the input-port memory size in bytes (Table I: 64 KB).
	// For VOQNet the effective size is VOQNetQueueRAM per endpoint.
	PortRAM int
	// VOQNetQueueRAM is the per-destination queue size for VOQnet
	// (Section IV-A: minimum 4 KB per queue, 256 KB ports in config #3).
	VOQNetQueueRAM int
	// IARAM is the input adapter's output-buffer size in bytes.
	IARAM int
	// DBBMQueues is the modulo queue count for the DBBM discipline.
	DBBMQueues int
	// OBQAQueues is the queue count for the OBQA discipline.
	OBQAQueues int

	// NumCFQs is the number of congested-flow queues (and CAM lines)
	// per port for NFQCFQ (the paper evaluates 2).
	NumCFQs int
	// DetectionThreshold (bytes): NFQ occupancy that triggers
	// congestion detection and CFQ allocation.
	DetectionThreshold int
	// StopThreshold / GoThreshold (bytes): per-CFQ Stop/Go flow
	// control towards the upstream hop (paper: 10 / 4 MTUs).
	StopThreshold int
	GoThreshold   int
	// PropagateThreshold (bytes): CFQ occupancy at which the
	// congestion information is announced upstream (CAM line
	// propagation). Must be <= StopThreshold.
	PropagateThreshold int
	// HoldDown: a drained CFQ must stay idle this long before its
	// resources are deallocated (implementation hysteresis to avoid
	// alloc/dealloc churn; the paper leaves the exact rule open). At
	// least 1 cycle.
	HoldDown sim.Cycle
	// PostMovesPerCycle bounds post-processing NFQ->CFQ moves per
	// cycle per port.
	PostMovesPerCycle int
	// DetectScan bounds how many NFQ entries the detection logic
	// inspects to find the dominant destination.
	DetectScan int

	// Marking (the FECN side of throttling).
	MarkingEnabled bool
	// HighThreshold / LowThreshold (bytes): the two-threshold
	// congestion state (paper: 4 / 2 packets, compared against VOQ
	// occupancy for ITh and root-CFQ occupancy for CCFIT).
	HighThreshold int
	LowThreshold  int
	// MarkingRate is the fraction of eligible packets that get the
	// FECN bit when crossing a congested output port (paper: 85%).
	MarkingRate float64
	// MinMarkSize is the Packet_Size parameter: only packets at least
	// this large are FECN-marked (keeps BECNs unmarked).
	MinMarkSize int

	// Throttling (the BECN/CCT side).
	ThrottlingEnabled bool
	// CCTEntries is the Congestion Control Table length.
	CCTEntries int
	// IRDStep: CCT[i] = i * IRDStep cycles of inter-packet injection
	// rate delay.
	IRDStep sim.Cycle
	// CCTITimer: period of the CCTI decrement timer (paper: 8000 ns).
	CCTITimer sim.Cycle
	// CCTIIncrease: CCTI increment per received BECN.
	CCTIIncrease int
	// BECNPacing is the minimum interval between BECNs a destination
	// returns to the same source (0 = one BECN per FECN-marked packet).
	// InfiniBand/RoCE endpoints moderate their notification rate the
	// same way; without it the CCTI overshoots far past the fair rate
	// on every congestion episode. Default: half a CCTI_Timer, so the
	// increase rate is at most twice the decay rate and the control
	// loop hovers near the congestion-clearing point.
	BECNPacing sim.Cycle

	// Tracer, when non-nil, observes every congestion-management
	// event (detections, CFQ lifecycle, Stop/Go, marking, BECNs); see
	// the trace package for implementations. Nil disables tracing.
	Tracer trace.Tracer

	// ISlipIters is the iSLIP iteration count per cycle.
	ISlipIters int
	// AdVOQCap is the admittance-queue depth (packets) per destination
	// at the input adapters.
	AdVOQCap int
}

// mtuBytes is a shorthand for threshold defaults expressed in MTUs.
func mtuBytes(n int) int { return n * pkt.MTU }

// baseParams holds the defaults shared by every preset (Table I).
func baseParams() Params {
	return Params{
		PortRAM:            64 << 10,
		VOQNetQueueRAM:     4 << 10,
		IARAM:              64 << 10,
		DBBMQueues:         8,
		OBQAQueues:         4,
		NumCFQs:            2,
		DetectionThreshold: mtuBytes(4),
		StopThreshold:      mtuBytes(10),
		GoThreshold:        mtuBytes(4),
		PropagateThreshold: mtuBytes(4),
		HoldDown:           128, // ~4 MTU times
		PostMovesPerCycle:  2,
		DetectScan:         32,
		HighThreshold:      mtuBytes(4),
		LowThreshold:       mtuBytes(2),
		MarkingRate:        0.85,
		MinMarkSize:        512,
		CCTEntries:         128,
		IRDStep:            16, // half an MTU serialization time
		CCTITimer:          sim.CyclesFromNS(8000),
		CCTIIncrease:       1,
		BECNPacing:         sim.CyclesFromNS(8000) / 2,
		ISlipIters:         2,
		AdVOQCap:           16,
	}
}

// Preset1Q is the single-queue baseline: no HoL-blocking reduction, no
// congestion control.
func Preset1Q() Params {
	p := baseParams()
	p.Name = "1Q"
	p.Disc = OneQ
	return p
}

// PresetFBICM is congested-flow isolation alone: 2 CFQs per port, CAMs
// at input and output ports, no marking/throttling.
func PresetFBICM() Params {
	p := baseParams()
	p.Name = "FBICM"
	p.Disc = NFQCFQ
	return p
}

// PresetITh is injection throttling alone over VOQsw switches
// (Section IV-A: 8 VOQs, CCTI_Timer 8000 ns, Marking_Rate 85%,
// High/Low = 4/2 packets).
func PresetITh() Params {
	p := baseParams()
	p.Name = "ITh"
	p.Disc = VOQSw
	p.MarkingEnabled = true
	p.ThrottlingEnabled = true
	return p
}

// PresetCCFIT combines congested-flow isolation with injection
// throttling: 2 CFQs per port, marking driven by root-CFQ occupancy,
// Stop/Go at 10/4 MTUs (Section IV-A).
func PresetCCFIT() Params {
	p := baseParams()
	p.Name = "CCFIT"
	p.Disc = NFQCFQ
	p.MarkingEnabled = true
	p.ThrottlingEnabled = true
	return p
}

// PresetVOQnet is network-level virtual output queueing: one queue per
// destination at every port — the near-ideal, near-unimplementable
// reference scheme.
func PresetVOQnet() Params {
	p := baseParams()
	p.Name = "VOQnet"
	p.Disc = VOQNet
	return p
}

// PresetDBBM is destination-based buffer management (dest mod N
// queues), an extra baseline beyond the paper's evaluated set.
func PresetDBBM() Params {
	p := baseParams()
	p.Name = "DBBM"
	p.Disc = DBBM
	return p
}

// PresetVOQswOnly is switch-level virtual output queueing without any
// congestion control — the queue organisation ITh runs over, isolated
// as its own baseline (eliminates switch-local HoL blocking only).
func PresetVOQswOnly() Params {
	p := baseParams()
	p.Name = "VOQsw"
	p.Disc = VOQSw
	return p
}

// PresetOBQA is output-based queue assignment (related work [26]): an
// extra baseline using next-hop output ports to assign queues.
func PresetOBQA() Params {
	p := baseParams()
	p.Name = "OBQA"
	p.Disc = OBQA
	return p
}

// EffectivePortRAM returns the input-port memory for a port serving
// numEndpoints destinations under this discipline (a per-destination
// one scales with network size; everything else uses PortRAM).
func (p *Params) EffectivePortRAM(numEndpoints int) int {
	if disciplines[p.Disc].perDest {
		return p.VOQNetQueueRAM * numEndpoints
	}
	return p.PortRAM
}

// PortCredits builds the credit pool mirroring a switch input port's
// receive memory: one shared counter, or Table I's VOQNetQueueRAM for
// each of a per-destination discipline's queues.
func (p *Params) PortCredits(numEndpoints int) *CreditPool {
	if disciplines[p.Disc].perDest {
		return NewPerDestCredits(numEndpoints, p.VOQNetQueueRAM)
	}
	return NewSharedCredits(p.PortRAM)
}

// IAParams returns the parameters of the input adapter's output buffer:
// the organisation the scheme's row names, over IARAM.
func (p *Params) IAParams() Params {
	ia := *p
	ia.PortRAM = p.IARAM
	ia.Disc = disciplines[p.Disc].ia
	return ia
}

// Validate rejects inconsistent parameter combinations.
func (p *Params) Validate() error {
	if int(p.Disc) >= len(disciplines) {
		return fmt.Errorf("core: unknown discipline %v", p.Disc)
	}
	if row := &disciplines[p.Disc]; row.count != nil && row.count(p) <= 0 {
		return fmt.Errorf("core: %s needs a positive queue count", row.name)
	}
	switch {
	case p.PortRAM <= 0 || p.IARAM <= 0:
		return fmt.Errorf("core: non-positive port memory")
	case p.GoThreshold >= p.StopThreshold:
		return fmt.Errorf("core: Go threshold (%d) must be below Stop (%d)", p.GoThreshold, p.StopThreshold)
	case p.LowThreshold >= p.HighThreshold:
		return fmt.Errorf("core: Low threshold (%d) must be below High (%d)", p.LowThreshold, p.HighThreshold)
	case p.PropagateThreshold > p.StopThreshold:
		return fmt.Errorf("core: propagate threshold above Stop threshold")
	case p.StopThreshold > p.PortRAM:
		return fmt.Errorf("core: Stop threshold exceeds port RAM")
	case p.MarkingEnabled && (p.MarkingRate < 0 || p.MarkingRate > 1):
		return fmt.Errorf("core: marking rate %v outside [0,1]", p.MarkingRate)
	case p.ThrottlingEnabled && (p.CCTEntries <= 1 || p.CCTITimer <= 0 || p.CCTIIncrease <= 0):
		return fmt.Errorf("core: inconsistent throttling parameters")
	case p.ISlipIters <= 0:
		return fmt.Errorf("core: iSLIP iterations must be positive")
	case p.AdVOQCap <= 0:
		return fmt.Errorf("core: AdVOQ capacity must be positive")
	case p.PostMovesPerCycle <= 0 || p.DetectScan <= 0:
		return fmt.Errorf("core: post-processing parameters must be positive")
	case p.Disc == NFQCFQ && p.DetectScan*pkt.MTU < p.DetectionThreshold/2:
		// detect needs the dominant destination to hold half the
		// detection threshold among the first DetectScan entries: DESIGN.md §3.
		return fmt.Errorf("core: DetectScan %d holds at most %d B, below half the detection threshold (%d B): no flow is ever isolated",
			p.DetectScan, p.DetectScan*pkt.MTU, p.DetectionThreshold/2)
	case p.HoldDown < 1:
		// At 0 the Update of the cycle a line is detected frees it before
		// a packet can enter it: DESIGN.md §3.
		return fmt.Errorf("core: HoldDown %d: a CFQ line must outlive the cycle it is allocated in", p.HoldDown)
	}
	return nil
}
