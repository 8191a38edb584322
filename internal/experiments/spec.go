package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Spec is the declarative form of a campaign: which experiments, which
// schemes, how many seeds — the same shape every campaign CLI already
// accepts as flags, made serializable so a campaign can be submitted
// to a service, stored, and re-expanded after a restart. Expansion
// is deterministic: the same Spec always yields the same cells in the
// same order, which is what makes a resume and remote rendering line
// up with local runs.
type Spec struct {
	// Experiments lists experiment ids (ResolveIDs): registered ones
	// and load points. Static tables are skipped during expansion.
	Experiments []string `json:"experiments,omitempty"`
	// Schemes overrides the scheme set; nil uses each experiment's own.
	// A load point has none, so a spec naming one must name schemes.
	Schemes []string `json:"schemes,omitempty"`
	// Seed is the base seed (default 1); Seeds the replication count
	// (default 1), covering Seed..Seed+Seeds-1.
	Seed  int64 `json:"seed,omitempty"`
	Seeds int   `json:"seeds,omitempty"`
	// MS, when > 0, sets every experiment's run length in simulated
	// milliseconds (quick previews, service smoke tests); 0 keeps the
	// full length (1 ms for a load point), and a negative or NaN MS is
	// invalid. The duration is part of the cache fingerprint, so
	// truncated and full runs never collide.
	MS float64 `json:"ms,omitempty"`
	// Params, when non-nil, overrides the scheme preset for every cell
	// (the ablation path). The named scheme still labels results.
	Params *core.Params `json:"params,omitempty"`
	// Label is a free-form display label (sweep point, submitter note).
	Label string `json:"label,omitempty"`
	// Faults, when non-nil, is a deterministic fault script injected
	// into every cell after Build; its fingerprint is in the cache key.
	Faults *fault.Script `json:"faults,omitempty"`
	// Watchdog is every cell's forward-progress window in cycles: 0 the
	// invariant checker's default, <0 disabled.
	Watchdog sim.Cycle `json:"watchdog,omitempty"`
}

// Cell is one expanded unit of a Spec, and the one description of a
// job: a concrete experiment, scheme and seed, plus the spec's
// parameter override, fault script and watchdog window.
type Cell struct {
	Exp Experiment
	// Scheme is the preset name ("CCFIT", "ITh", ...). With Params set
	// it only labels the result (defaulting to Params.Name).
	Scheme string
	Seed   int64        // drives every random stream of the simulation
	Params *core.Params // overrides the preset (ablations); in the cache key
	Faults *fault.Script
	// Watchdog is the invariant checker's forward-progress window in
	// cycles: 0 default, <0 disabled.
	Watchdog sim.Cycle
	// Source is a one-cell spec that re-expands to exactly this cell
	// (OneCell), nil for a hand-built cell: the Build closure cannot
	// cross a process boundary, but the spec can, and a worker expanding
	// it recovers the identical cell and cache key.
	Source *Spec
}

// String labels a cell for telemetry and error messages.
func (c Cell) String() string {
	scheme := c.Scheme
	if scheme == "" && c.Params != nil {
		scheme = c.Params.Name
	}
	return fmt.Sprintf("%s/%s seed=%d", c.Exp.ID, scheme, c.Seed)
}

// Simulate is the one run path of every simulation: it builds the
// cell's network under its Params, else its scheme's preset, injects
// its fault script, sets its watchdog window and runs it audited — an
// invariant violation mid-run or in the terminal audit is the returned
// error (the *invariant.Violation itself), never a plausible network.
func (c Cell) Simulate() (*network.Network, error) {
	if c.Exp.Build == nil {
		return nil, fmt.Errorf("experiments: %s is not a runnable experiment", c.Exp.ID)
	}
	p, err := SchemeByName(c.Scheme)
	if c.Params != nil {
		p, err = *c.Params, nil
	}
	if err != nil {
		return nil, err
	}
	n, err := c.Exp.Build(p, c.Seed, c.Exp.Bin, c.Exp.Duration, BuildOpts{})
	if err != nil {
		return nil, err
	}
	if c.Faults != nil {
		if _, err := n.InjectFaults(c.Faults); err != nil {
			return nil, err
		}
	}
	if c.Watchdog != 0 && n.Checker != nil {
		n.Checker.SetWatchdogWindow(c.Watchdog)
	}
	if err := n.RunAudited(c.Exp.Duration); err != nil {
		return nil, err
	}
	return n, nil
}

// MaxCells bounds the cells a spec may expand to: far above the largest
// campaign in the repo (240 cells), far below a count whose cells would
// exhaust memory before the first one runs.
const MaxCells = 1 << 16

// seedRange returns the first seed a spec covers and how many.
func (s Spec) seedRange() (base int64, n int) {
	base, n = s.Seed, s.Seeds
	if base == 0 {
		base = 1
	}
	return base, max(n, 1)
}

// SeedList returns the seeds a spec covers.
func (s Spec) SeedList() []int64 {
	base, n := s.seedRange()
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}

// Validate checks a spec without expanding it fully.
func (s Spec) Validate() error {
	_, err := s.Expand()
	return err
}

// OneCell expands a spec that must name exactly one cell — a cell's
// Source, as a remote worker receives it. Anything else means the two
// sides disagree about what a cell is.
func (s Spec) OneCell() (Cell, error) {
	cells, err := s.Expand()
	if err != nil {
		return Cell{}, err
	}
	if len(cells) != 1 {
		return Cell{}, fmt.Errorf("experiments: spec expands to %d cells, want exactly 1", len(cells))
	}
	return cells[0], nil
}

// Expand resolves a spec into its cells in deterministic
// experiment-major order (experiment, then scheme, then seed), the one
// order every renderer's cursor walks, locally and against a server.
// Every id, scheme, parameter set, fault script, seed range and
// duration, and the cell count (at most MaxCells), is validated before
// anything is returned (fail-fast: a typo in a submitted campaign is a
// 4xx, never a mid-campaign failure).
func (s Spec) Expand() ([]Cell, error) {
	if s.Params != nil {
		if err := s.Params.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: spec params: %w", err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: fault script: %w", err)
		}
	}
	for _, name := range s.Schemes {
		if _, err := SchemeByName(name); err != nil {
			return nil, err
		}
	}
	base, nseeds := s.seedRange()
	if nseeds > MaxCells {
		return nil, fmt.Errorf("experiments: %d seeds; a spec expands to at most %d cells", nseeds, MaxCells)
	}
	// A cell's Source names its one seed, and Seed 0 names the default.
	if last := base + int64(nseeds-1); last < base || base < 0 && last >= 0 {
		return nil, fmt.Errorf("experiments: seeds from %d to %d overflow or cover seed 0", base, last)
	}
	var duration sim.Cycle
	if s.MS != 0 { // 0: full length; a negative or NaN MS fails MSCycles
		var err error
		if duration, err = MSCycles("ms", s.MS); err != nil {
			return nil, err
		}
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("experiments: spec names no experiments")
	}
	// Every runnable id yields at least one cell: refuse a list past
	// MaxCells before resolving any of it.
	if _, err := addCells(0, len(s.Experiments), 1); err != nil {
		return nil, err
	}
	exps, err := ResolveIDs(s.Experiments)
	if err != nil {
		return nil, err
	}
	seeds := s.SeedList()
	var cells []Cell
	for _, e := range exps {
		if e.Kind == ConfigTable {
			continue
		}
		if duration > 0 {
			e.Duration = duration
			e.Bin = min(e.Bin, duration)
		}
		schemes := s.Schemes
		if schemes == nil {
			schemes = e.Schemes
		}
		if len(schemes) == 0 {
			return nil, fmt.Errorf("experiments: %s has no schemes of its own; the spec must name them", e.ID)
		}
		if _, err := addCells(len(cells), len(schemes), nseeds); err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			for _, seed := range seeds {
				one := &Spec{
					Experiments: []string{e.ID}, Schemes: []string{scheme}, Seed: seed, Seeds: 1, MS: s.MS,
					Params: s.Params, Faults: s.Faults, Watchdog: s.Watchdog,
				}
				cells = append(cells, Cell{
					Exp: e, Scheme: scheme, Seed: seed, Params: s.Params,
					Faults: s.Faults, Watchdog: s.Watchdog, Source: one,
				})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: spec expands to zero runnable cells")
	}
	return cells, nil
}

// MSCycles converts the run length field (a spec's or a flag's) to
// cycles, rejecting a negative, NaN or sub-cycle duration and one past
// the clock (a float conversion out of int64's range is just garbage).
func MSCycles(field string, ms float64) (sim.Cycle, error) {
	if c := ms * 1e6 / sim.CycleNS; !(c >= 0.5 && c < maxSpecCycles) {
		return 0, fmt.Errorf("experiments: %s %g is not a duration of 1 to %d cycles", field, ms, maxSpecCycles)
	}
	return sim.CyclesFromMS(ms), nil
}

// maxSpecCycles bounds a spec's durations: 2^40 cycles (~7.8 simulated
// hours) leaves the clock room for every deadline a run adds to its end.
const maxSpecCycles = 1 << 40

// addCells returns total plus groups×per cells, or an error past MaxCells,
// before anything is allocated for them; it cannot overflow, whatever the
// factors.
func addCells(total, groups, per int) (int, error) {
	if per > 0 && groups > (MaxCells-total)/per {
		return 0, fmt.Errorf("experiments: spec expands to more than %d cells", MaxCells)
	}
	return total + groups*per, nil
}

// LoadPoint builds the synthetic experiment for one offered-load point
// of the uniform load curve: every endpoint sends uniform traffic at
// `load` of the link rate on the chosen configuration for 1 ms. The
// exact load is baked into the id (%g reads back to the same float64)
// because it changes the traffic — and the id is where it enters the
// cache key, and what ResolveIDs reads a point back from.
func LoadPoint(config int, load float64) (Experiment, error) {
	if !(load > 0 && load <= 1) { // NaN too
		return Experiment{}, fmt.Errorf("experiments: offered load must be in (0, 1], got %g", load)
	}
	var ft *topo.FatTree
	switch config {
	case 2:
		ft = topo.Config2()
	case 3:
		ft = topo.Config3()
	default:
		return Experiment{}, fmt.Errorf("experiments: load curve runs on config 2 or 3, got %d", config)
	}
	return Experiment{
		ID:       fmt.Sprintf("loadcurve-c%d-load%g", config, load),
		Title:    fmt.Sprintf("uniform load %.2f on %s", load, ft.Name),
		Kind:     Throughput,
		Duration: ms(1),
		Bin:      sim.CyclesFromNS(50_000),
		Build: func(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
			n, err := network.Build(ft.Topology, p, network.Options{Seed: seed, BinCycles: bin})
			if err != nil {
				return nil, err
			}
			var flows []traffic.Flow
			for s := 0; s < ft.NumEndpoints(); s++ {
				flows = append(flows, traffic.Flow{
					ID: s, Src: s, Dst: traffic.UniformDst, Start: 0, End: end, Rate: load,
				})
			}
			return n, n.AddFlows(flows)
		},
	}, nil
}
