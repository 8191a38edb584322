package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Spec is the declarative form of a campaign: which experiments, which
// schemes, how many seeds — the same shape every campaign CLI already
// accepts as flags, made serializable so a campaign can be submitted
// to a service, journaled, and re-expanded after a restart. Expansion
// is deterministic: the same Spec always yields the same cells in the
// same order, which is what makes journal replay and remote rendering
// line up with local runs.
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
	// milliseconds (quick previews, service smoke tests). The duration
	// is part of the cache fingerprint, so truncated and full runs
	// never collide.
	MS float64 `json:"ms,omitempty"`
	// Params, when non-nil, overrides the scheme preset for every cell
	// (the ablation path). The named scheme still labels results.
	Params *core.Params `json:"params,omitempty"`
	// LoadCurve expands into synthetic uniform-traffic load points
	// instead of registered experiments.
	LoadCurve *LoadCurveSpec `json:"load_curve,omitempty"`
	// SimWorkers requests the partitioned engine for every cell (0 or 1
	// = serial). Outcome-neutral — partitioned runs are byte-identical —
	// so it is deliberately NOT part of the result cache fingerprint.
	SimWorkers int `json:"sim_workers,omitempty"`
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
	// MS is the simulated milliseconds per point (default 1.0).
	MS float64 `json:"ms,omitempty"`
}

// Cell is one expanded unit of a Spec: a concrete experiment, scheme
// and seed (plus the optional parameter override shared by the spec).
type Cell struct {
	Exp    Experiment
	Scheme string
	Seed   int64
	Params *core.Params
	// SimWorkers is the spec's requested engine worker count.
	SimWorkers int
	// Source is a one-cell spec that re-expands to exactly this cell.
	// It is what makes a cell serializable — an Experiment carries a
	// Build closure that cannot cross a process boundary, but the spec
	// that produced it can, and expansion is deterministic, so a remote
	// worker expanding Source recovers the identical cell (and hence
	// the identical cache key).
	Source Spec
}

// SeedList returns the seeds a spec covers.
func (s Spec) SeedList() []int64 {
	base := s.Seed
	if base == 0 {
		base = 1
	}
	n := s.Seeds
	if n <= 0 {
		n = 1
	}
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
// server. Every id, scheme and parameter
// set is validated before anything is returned (fail-fast: a typo in
// a submitted campaign is a 4xx, never a mid-campaign failure).
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
	seeds := s.SeedList()
	if s.LoadCurve != nil {
		return s.expandLoadCurve(seeds)
	}
	if len(s.Experiments) == 0 {
		return nil, fmt.Errorf("experiments: spec names no experiments")
	}
	exps, err := ResolveIDs(s.Experiments)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, e := range exps {
		if e.Kind == ConfigTable {
			continue
		}
		if s.MS > 0 {
			e.Duration = sim.CyclesFromMS(s.MS)
			if e.Bin > e.Duration {
				e.Bin = e.Duration
			}
		}
		schemes := s.Schemes
		if schemes == nil {
			schemes = e.Schemes
		}
		for _, scheme := range schemes {
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Exp: e, Scheme: scheme, Seed: seed, Params: s.Params, SimWorkers: s.SimWorkers,
					Source: Spec{
						Experiments: []string{e.ID},
						Schemes:     []string{scheme},
						Seed:        seed,
						Seeds:       1,
						MS:          s.MS,
						Params:      s.Params,
						SimWorkers:  s.SimWorkers,
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

func (s Spec) expandLoadCurve(seeds []int64) ([]Cell, error) {
	lc := s.LoadCurve
	if len(s.Schemes) == 0 {
		return nil, fmt.Errorf("experiments: load_curve spec must name schemes")
	}
	if len(lc.Loads) == 0 {
		return nil, fmt.Errorf("experiments: load_curve spec has no loads")
	}
	ms := lc.MS
	if ms <= 0 {
		ms = 1.0
	}
	end := sim.CyclesFromMS(ms)
	bin := sim.CyclesFromNS(50_000)
	if bin > end {
		bin = end
	}
	var cells []Cell
	for _, scheme := range s.Schemes {
		for _, load := range lc.Loads {
			e, err := LoadPoint(lc.Config, load, end, bin)
			if err != nil {
				return nil, err
			}
			for _, seed := range seeds {
				cells = append(cells, Cell{
					Exp: e, Scheme: scheme, Seed: seed, Params: s.Params, SimWorkers: s.SimWorkers,
					Source: Spec{
						Schemes:    []string{scheme},
						Seed:       seed,
						Seeds:      1,
						Params:     s.Params,
						SimWorkers: s.SimWorkers,
						LoadCurve:  &LoadCurveSpec{Config: lc.Config, Loads: []float64{load}, MS: lc.MS},
					},
				})
			}
		}
	}
	return cells, nil
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
		Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
			n, err := network.Build(ft.Topology, p, network.Options{
				Seed: seed, BinCycles: bin, TieBreak: ft.DETTieBreak, SimWorkers: o.SimWorkers,
			})
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

// Fingerprint summarizes a spec for display and duplicate detection:
// a stable, human-readable one-liner (ids, schemes, seeds, overrides).
func (s Spec) Fingerprint() string {
	ids := s.Experiments
	if s.LoadCurve != nil {
		ids = []string{fmt.Sprintf("loadcurve-c%d×%d", s.LoadCurve.Config, len(s.LoadCurve.Loads))}
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	fp := fmt.Sprintf("exps=%v schemes=%v seeds=%v", sorted, s.Schemes, s.SeedList())
	if s.MS > 0 {
		fp += fmt.Sprintf(" ms=%g", s.MS)
	}
	if s.Params != nil {
		fp += fmt.Sprintf(" params=%s", s.Params.Name)
	}
	return fp
}
