package oracle

import (
	"context"
	"fmt"

	"repro/internal/experiments"
)

// VerifyOptions configure a verification campaign (the ccfit-verify
// command line maps onto this 1:1).
type VerifyOptions struct {
	// Mode is "quick" (differential + self-check + structural
	// properties + a 25-config fixed-seed sweep of the fuzzed property
	// suite) or "full" (everything quick runs, plus scheme dominance,
	// IRD monotonicity, the golden-curve gate and a 200-config sweep).
	// The open-ended campaign is `go test -fuzz FuzzProperties`.
	Mode string
	// Seed drives every simulation and the sweep's inputs.
	Seed int64
	// Workers bounds every worker pool (<=0: one per core).
	Workers int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// VerifySection is one named gate's outcome.
type VerifySection struct {
	Name     string
	Detail   string   // one-line scale description ("15 pairs", "200 configs")
	Findings []string // empty = passed
}

// VerifyReport aggregates a campaign.
type VerifyReport struct {
	Mode     string
	Sections []VerifySection
}

// OK reports whether every section passed.
func (r *VerifyReport) OK() bool {
	for _, s := range r.Sections {
		if len(s.Findings) > 0 {
			return false
		}
	}
	return true
}

// Findings counts findings across sections.
func (r *VerifyReport) Findings() int {
	n := 0
	for _, s := range r.Sections {
		n += len(s.Findings)
	}
	return n
}

// Verify runs the oracle's gates per VerifyOptions.Mode. The error
// return is infrastructural (unknown mode, a gate that failed to
// execute at all); findings are data in the report.
func Verify(ctx context.Context, opt VerifyOptions) (*VerifyReport, error) {
	full := false
	switch opt.Mode {
	case "", "quick":
		opt.Mode = "quick"
	case "full":
		full = true
	default:
		return nil, fmt.Errorf("oracle: unknown verify mode %q (want quick or full)", opt.Mode)
	}
	logf := opt.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &VerifyReport{Mode: opt.Mode}
	section := func(name, detail string, findings []string) {
		rep.Sections = append(rep.Sections, VerifySection{Name: name, Detail: detail, Findings: findings})
		state := "ok"
		if len(findings) > 0 {
			state = fmt.Sprintf("%d finding(s)", len(findings))
		}
		logf("%-12s %s (%s)", name, state, detail)
	}
	asStrings := func(errs []error) []string {
		var out []string
		for _, e := range errs {
			out = append(out, e.Error())
		}
		return out
	}

	// Differential: the reference simulator must agree exactly on
	// delivery and within bands on latency, per scenario × scheme.
	var findings []string
	pairs := 0
	for _, sc := range Scenarios() {
		for _, scheme := range PaperSchemes {
			if err := ctx.Err(); err != nil {
				return rep, err
			}
			p, err := experiments.SchemeByName(scheme)
			if err != nil {
				return nil, err
			}
			dr, err := RunDiff(sc, scheme, p, opt.Seed, DefaultBand())
			if err != nil {
				return nil, err
			}
			pairs++
			if !dr.OK() {
				findings = append(findings, dr.String())
			}
		}
	}
	section("differential", fmt.Sprintf("%d scenario×scheme pairs", pairs), findings)

	// Self-check: seeded engine bugs must be caught.
	var sc []string
	if err := SelfCheck(opt.Seed); err != nil {
		sc = append(sc, err.Error())
	}
	section("self-check", "2 seeded credit faults", sc)

	// Structural properties (cheap, always on).
	section("cct-table", "monotonicity over 6 CCTI depths", asStrings(CheckCCTMonotonic()))

	if full {
		section("dominance", "5 schemes × 0.75 ms hot-spot", asStrings(CheckSchemeDominance(opt.Seed, 0.05)))
		section("ird-step", "3 throttling intensities", asStrings(CheckIRDStepMonotonic(opt.Seed, 0.05)))

		findings, err := CheckCurves(DefaultCurveBand())
		if err != nil {
			return nil, err
		}
		section("curves", "Figs. 7a, 8a, 9 vs golden bands", asStrings(findings))
	}

	iters := 25
	if full {
		iters = 200
	}
	swept, err := Sweep(ctx, iters, opt.Seed, opt.Workers)
	if err != nil {
		return rep, err
	}
	section("fuzz", fmt.Sprintf("%d configs", iters), swept)
	return rep, nil
}
