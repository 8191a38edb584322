package experiments

import (
	"fmt"

	"repro/internal/core"
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
	// Experiments lists registered experiment ids (ValidIDs). Static
	// tables are skipped during expansion.
	// Mutually exclusive with LoadCurve.
	Experiments []string `json:"experiments,omitempty"`
	// Schemes overrides the scheme set; nil uses each experiment's own.
	// LoadCurve specs must name schemes explicitly.
	Schemes []string `json:"schemes,omitempty"`
	// Seed is the base seed (default 1); Seeds the replication count
	// (default 1), covering Seed..Seed+Seeds-1.
	Seed  int64 `json:"seed,omitempty"`
	Seeds int   `json:"seeds,omitempty"`
	// MS, when > 0, truncates every experiment to this many simulated
	// milliseconds (quick previews, service smoke tests); 0 keeps the
	// full length, and a negative or NaN MS is invalid. The duration
	// is part of the cache fingerprint, so truncated and full runs
	// never collide.
	MS float64 `json:"ms,omitempty"`
	// Params, when non-nil, overrides the scheme preset for every cell
	// (the ablation path). The named scheme still labels results.
	Params *core.Params `json:"params,omitempty"`
	// LoadCurve expands into synthetic uniform-traffic load points
	// instead of registered experiments.
	LoadCurve *LoadCurveSpec `json:"load_curve,omitempty"`
	// Label is a free-form display label (sweep point, submitter note).
	Label string `json:"label,omitempty"`
}

// LoadCurveSpec describes an accepted-vs-offered load sweep: uniform
// traffic on one configuration across a list of offered loads.
type LoadCurveSpec struct {
	// Config selects the network configuration (2 or 3).
	Config int `json:"config"`
	// Loads are offered loads in (0, 1], fractions of the link rate.
	Loads []float64 `json:"loads"`
	// MS is the simulated milliseconds per point (0: default 1.0).
	MS float64 `json:"ms,omitempty"`
}

// Cell is one expanded unit of a Spec: a concrete experiment, scheme
// and seed (plus the optional parameter override shared by the spec).
type Cell struct {
	Exp    Experiment
	Scheme string
	Seed   int64
	Params *core.Params
	// Source is a one-cell spec that re-expands to exactly this cell.
	// It is what makes a cell serializable — an Experiment carries a
	// Build closure that cannot cross a process boundary, but the spec
	// that produced it can, and expansion is deterministic, so a remote
	// worker expanding Source recovers the identical cell (and hence
	// the identical cache key).
	Source Spec
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

// Expand resolves a spec into its cells in deterministic
// experiment-major order (experiment, then scheme, then seed), the
// one order every renderer's cursor walks, locally and against a
// server. Every id, scheme, parameter set, seed range and duration,
// and the cell count (at most MaxCells), is validated before anything
// is returned (fail-fast: a typo in a submitted campaign is a 4xx, never
// a mid-campaign failure).
func (s Spec) Expand() ([]Cell, error) {
	if s.LoadCurve != nil && len(s.Experiments) > 0 {
		return nil, fmt.Errorf("experiments: spec mixes experiments and load_curve; use one")
	}
	if s.Params != nil {
		if err := s.Params.Validate(); err != nil {
			return nil, fmt.Errorf("experiments: spec params: %w", err)
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
	if s.LoadCurve != nil {
		return s.expandLoadCurve(nseeds)
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("experiments: spec names no experiments")
	}
	exps, err := ResolveIDs(s.Experiments)
	if err != nil {
		return nil, err
	}
	var duration sim.Cycle
	if s.MS != 0 { // 0: full length; a negative or NaN MS fails MSCycles
		if duration, err = MSCycles("ms", s.MS); err != nil {
			return nil, err
		}
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
		if _, err := addCells(len(cells), len(schemes), nseeds); err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Exp: e, Scheme: scheme, Seed: seed, Params: s.Params,
					Source: Spec{
						Experiments: []string{e.ID},
						Schemes:     []string{scheme},
						Seed:        seed,
						Seeds:       1,
						MS:          s.MS,
						Params:      s.Params,
					},
				})
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("experiments: spec expands to zero runnable cells")
	}
	return cells, nil
}

func (s Spec) expandLoadCurve(nseeds int) ([]Cell, error) {
	lc := s.LoadCurve
	if len(s.Schemes) == 0 {
		return nil, fmt.Errorf("experiments: load_curve spec must name schemes")
	}
	if len(lc.Loads) == 0 {
		return nil, fmt.Errorf("experiments: load_curve spec has no loads")
	}
	ms := lc.MS
	if ms == 0 { // the default; a negative or NaN MS fails MSCycles
		ms = 1.0
	}
	end, err := MSCycles("load_curve.ms", ms)
	if err != nil {
		return nil, err
	}
	bin := min(sim.CyclesFromNS(50_000), end)
	ncells, err := addCells(0, len(s.Schemes), len(lc.Loads))
	if err == nil {
		ncells, err = addCells(0, ncells, nseeds)
	}
	if err != nil {
		return nil, err
	}
	seeds := s.SeedList()
	cells := make([]Cell, 0, ncells)
	for _, scheme := range s.Schemes {
		for _, load := range lc.Loads {
			e, err := LoadPoint(lc.Config, load, end, bin)
			if err != nil {
				return nil, err
			}
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Exp: e, Scheme: scheme, Seed: seed, Params: s.Params,
					Source: Spec{
						Schemes:   []string{scheme},
						Seed:      seed,
						Seeds:     1,
						Params:    s.Params,
						LoadCurve: &LoadCurveSpec{Config: lc.Config, Loads: []float64{load}, MS: lc.MS},
					},
				})
			}
		}
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
// `load` of the link rate on the chosen configuration. The load is
// baked into the id because it changes the traffic — and hence the
// cache key.
func LoadPoint(config int, load float64, end, bin sim.Cycle) (Experiment, error) {
	if load <= 0 || load > 1 {
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
		ID:       fmt.Sprintf("loadcurve-c%d-load%.3f", config, load),
		Title:    fmt.Sprintf("uniform load %.2f on %s", load, ft.Name),
		Kind:     Throughput,
		Duration: end,
		Bin:      bin,
		Build: func(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
			n, err := network.Build(ft.Topology, p, network.Options{Seed: seed, BinCycles: bin, TieBreak: ft.DETTieBreak})
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
