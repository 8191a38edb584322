package core

import (
	"testing"

	"repro/internal/pkt"
	"repro/internal/sim"
)

func TestPresetsValidate(t *testing.T) {
	for _, p := range []Params{
		Preset1Q(), PresetFBICM(), PresetITh(), PresetCCFIT(), PresetVOQnet(), PresetDBBM(),
	} {
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestPresetsMatchPaperSectionIVA(t *testing.T) {
	ith := PresetITh()
	if !ith.MarkingEnabled || !ith.ThrottlingEnabled {
		t.Fatal("ITh must mark and throttle")
	}
	if ith.Disc != VOQSw {
		t.Fatal("ITh runs over VOQsw switches")
	}
	if ith.CCTITimer != sim.CyclesFromNS(8000) {
		t.Fatalf("CCTI_Timer = %d cycles, want %d (8000 ns)", ith.CCTITimer, sim.CyclesFromNS(8000))
	}
	if ith.MarkingRate != 0.85 {
		t.Fatalf("Marking_Rate = %v, want 0.85", ith.MarkingRate)
	}
	if ith.HighThreshold != 4*pkt.MTU || ith.LowThreshold != 2*pkt.MTU {
		t.Fatal("High/Low thresholds must be 4/2 packets")
	}

	cc := PresetCCFIT()
	if cc.Disc != NFQCFQ || cc.NumCFQs != 2 {
		t.Fatal("CCFIT uses 2 CFQs per port")
	}
	if cc.StopThreshold != 10*pkt.MTU || cc.GoThreshold != 4*pkt.MTU {
		t.Fatal("CCFIT Stop/Go must be 10/4 MTUs")
	}
	if !cc.MarkingEnabled || !cc.ThrottlingEnabled {
		t.Fatal("CCFIT must mark and throttle")
	}

	fb := PresetFBICM()
	if fb.MarkingEnabled || fb.ThrottlingEnabled {
		t.Fatal("FBICM must not mark or throttle")
	}
	if fb.NumCFQs != 2 {
		t.Fatal("FBICM uses 2 CFQs per port")
	}

	vn := PresetVOQnet()
	if vn.EffectivePortRAM(64) != 256<<10 {
		t.Fatalf("VOQnet port RAM for 64 endpoints = %d, want 256 KB", vn.EffectivePortRAM(64))
	}
	oneq := Preset1Q()
	if got := oneq.EffectivePortRAM(64); got != 64<<10 {
		t.Fatalf("1Q port RAM = %d, want 64 KB", got)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	mutations := map[string]func(*Params){
		"no RAM":         func(p *Params) { p.PortRAM = 0 },
		"go >= stop":     func(p *Params) { p.GoThreshold = p.StopThreshold },
		"low >= high":    func(p *Params) { p.LowThreshold = p.HighThreshold },
		"prop > stop":    func(p *Params) { p.PropagateThreshold = p.StopThreshold + 1 },
		"stop > ram":     func(p *Params) { p.StopThreshold = p.PortRAM + 1 },
		"bad rate":       func(p *Params) { p.MarkingRate = 1.5 },
		"no cct":         func(p *Params) { p.CCTEntries = 1 },
		"no islip":       func(p *Params) { p.ISlipIters = 0 },
		"no advoq":       func(p *Params) { p.AdVOQCap = 0 },
		"no cfqs":        func(p *Params) { p.NumCFQs = 0 },
		"no post":        func(p *Params) { p.PostMovesPerCycle = 0 },
		"no hold-down":   func(p *Params) { p.HoldDown = 0 },
		"neg cctitimer":  func(p *Params) { p.CCTITimer = 0 },
		"no dbbm queues": func(p *Params) { p.Disc = DBBM; p.DBBMQueues = 0 },
		"unknown disc":   func(p *Params) { p.Disc = Discipline(len(disciplines)) },
	}
	for name, mut := range mutations {
		p := PresetCCFIT()
		mut(&p)
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestValidateDetectScan: an isolating scheme refuses a scan depth whose
// entries cannot hold half the detection threshold, at which detection
// never fires (DESIGN.md §3); schemes that do not isolate ignore it.
func TestValidateDetectScan(t *testing.T) {
	for _, tc := range []struct {
		p         Params
		scan      int
		threshold int // bytes; 0 keeps the preset's
		ok        bool
	}{
		{PresetFBICM(), 1, 0, false},
		{PresetCCFIT(), 1, 0, false},
		{PresetFBICM(), 2, 0, true},
		{PresetCCFIT(), 2, 0, true},
		{Preset1Q(), 1, 0, true},
		{PresetITh(), 1, 0, true},
		{PresetCCFIT(), 1, 2 * pkt.MTU, true},
	} {
		p := tc.p
		p.DetectScan = tc.scan
		if tc.threshold != 0 {
			p.DetectionThreshold = tc.threshold
		}
		if err := p.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s, DetectScan %d, DetectionThreshold %d B: Validate() = %v, want ok %v",
				p.Name, p.DetectScan, p.DetectionThreshold, err, tc.ok)
		}
	}
}

func TestDisciplineStrings(t *testing.T) {
	for d, want := range map[Discipline]string{
		OneQ: "1Q", VOQSw: "VOQsw", VOQNet: "VOQnet", DBBM: "DBBM", OBQA: "OBQA",
		NFQCFQ: "NFQ+CFQ", Discipline(77): "disc(77)",
	} {
		if d.String() != want {
			t.Fatalf("%v, want %q", d.String(), want)
		}
	}
}
