package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
)

// Kind tells renderers what an experiment plots.
type Kind uint8

const (
	// Throughput plots overall network throughput versus time
	// (Figs. 7 and 8).
	Throughput Kind = iota
	// FlowBandwidth plots per-flow bandwidth versus time
	// (Figs. 9 and 10).
	FlowBandwidth
	// ConfigTable reproduces Table I.
	ConfigTable
)

// BuildOpts is the last parameter of every Build function. Nothing reads
// it: builders take it as _ BuildOpts.
type BuildOpts struct {
	// SimWorkers is kept only for bench/, which sets it (DESIGN.md §9
	// lists the bench-only names).
	SimWorkers int
}

// Experiment is one reproducible unit of the evaluation.
type Experiment struct {
	ID      string
	Title   string
	Paper   string // what the paper reports (EXPERIMENTS.md shape notes)
	Kind    Kind
	Schemes []string // evaluated schemes, presentation order
	// Duration of the simulation and metrics bin width.
	Duration sim.Cycle
	Bin      sim.Cycle
	// FlowIDs for FlowBandwidth experiments.
	FlowIDs []int
	// Build wires the network with traffic installed.
	Build func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error)
}

// Registry returns every experiment of the paper's evaluation, in
// paper order. IDs: table1, fig7a..fig7c, fig8a..fig8c, fig9, fig10.
func Registry() []Experiment {
	bin := sim.CyclesFromNS(50_000) // 50 us bins
	list := []Experiment{
		{
			ID:    "table1",
			Title: "Table I: evaluated interconnection network configurations",
			Paper: "7/8/64 nodes; 2/12/48 switches; VCT; iSlip; 2048 B MTU; 64 KB port RAM; credit flow control; DET routing",
			Kind:  ConfigTable,
		},
		{
			ID:       "fig7a",
			Title:    "Fig. 7a: throughput vs time (Config #1, Case #1)",
			Paper:    "1Q collapses when congestion starts; ITh dips in [4,6] ms after detection at the left switch; FBICM and CCFIT track the offered load",
			Kind:     Throughput,
			Schemes:  []string{"1Q", "ITh", "FBICM", "CCFIT"},
			Duration: ms(10),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig1(p, seed, bin, end, o)
			},
		},
		{
			ID:       "fig7b",
			Title:    "Fig. 7b: throughput vs time (Config #2, Case #2)",
			Paper:    "all three CC techniques similar; 1Q struggles once congestion appears",
			Kind:     Throughput,
			Schemes:  []string{"1Q", "ITh", "FBICM", "CCFIT"},
			Duration: ms(10),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig2(p, seed, bin, end, 2, o)
			},
		},
		{
			ID:       "fig7c",
			Title:    "Fig. 7c: throughput vs time (Config #2, Case #3)",
			Paper:    "ITh reacts too slowly: its throughput takes time to reach the level of the others; isolation-based schemes react immediately",
			Kind:     Throughput,
			Schemes:  []string{"1Q", "ITh", "FBICM", "CCFIT"},
			Duration: ms(10),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig2(p, seed, bin, end, 3, o)
			},
		},
		{
			ID:    "fig9",
			Title: "Fig. 9: per-flow bandwidth (Config #1, Case #1)",
			Paper: "1Q: victim starved, parking lot (sole-user flows get double); ITh: victim restored and shares equalised; FBICM: victim best but unfairness increased; CCFIT added for completeness",
			Kind:  FlowBandwidth,
			// The paper shows 1Q, ITh, FBICM; CCFIT is included since
			// Fig. 10d demonstrates it on Config #2.
			Schemes:  []string{"1Q", "ITh", "FBICM", "CCFIT"},
			Duration: ms(10),
			Bin:      bin,
			FlowIDs:  []int{0, 1, 2, 5, 6},
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig1(p, seed, bin, end, o)
			},
		},
		{
			ID:       "fig10",
			Title:    "Fig. 10: per-flow bandwidth (Config #2, Case #2)",
			Paper:    "1Q: HoL + parking lot; ITh: fairer; FBICM: higher throughput, unfairness dominates; CCFIT: best throughput and fairness",
			Kind:     FlowBandwidth,
			Schemes:  []string{"1Q", "ITh", "FBICM", "CCFIT"},
			Duration: ms(10),
			Bin:      bin,
			FlowIDs:  []int{0, 1, 2, 3, 4},
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig2(p, seed, bin, end, 2, o)
			},
		},
	}
	for _, fig8 := range []struct {
		id    string
		trees int
		paper string
	}{
		{"fig8a", 1, "one tree: FBICM and CCFIT excellent (2 CFQs suffice); ITh slow/unstable; VOQnet is the 64-queue upper bound"},
		{"fig8b", 4, "four trees: FBICM runs out of CFQs and degrades; CCFIT releases resources via throttling and clearly outperforms it; ITh oscillates (saw shape)"},
		{"fig8c", 6, "six trees: same ordering; CCFIT keeps its advantage as trees exceed CFQ count"},
	} {
		trees := fig8.trees
		list = append(list, Experiment{
			ID:       fig8.id,
			Title:    fmt.Sprintf("Fig. 8%c: throughput vs time (Config #3, Case #4, %d congestion tree(s))", fig8.id[4], trees),
			Paper:    fig8.paper,
			Kind:     Throughput,
			Schemes:  []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"},
			Duration: ms(4),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig3(p, seed, bin, end, trees, o)
			},
		})
	}
	// Keep paper order: table1, fig7*, fig8*, fig9, fig10.
	ordered := make([]Experiment, 0, len(list))
	for _, id := range []string{"table1", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9", "fig10"} {
		for _, e := range list {
			if e.ID == id {
				ordered = append(ordered, e)
			}
		}
	}
	return ordered
}

// ByID finds one experiment: ResolveIDs of one id.
func ByID(id string) (Experiment, error) {
	exps, err := ResolveIDs([]string{id})
	if err != nil {
		return Experiment{}, err
	}
	return exps[0], nil
}

// ValidIDs returns every known experiment id — the paper registry in
// paper order followed by the extras.
func ValidIDs() []string {
	var ids []string
	for _, e := range append(Registry(), Extras()...) {
		ids = append(ids, e.ID)
	}
	return ids
}

// ResolveIDs maps experiment ids to experiments: the registered ids
// (ValidIDs) and the load points, which only LoadPoint's own id names
// (loadcurve-c2-load0.4, never load0.40), so a point has exactly one
// cache key. It builds the registry once and reports every unknown id
// at once (instead of erroring mid-campaign after earlier experiments
// already ran) together with the valid ids.
func ResolveIDs(ids []string) ([]Experiment, error) {
	all := append(Registry(), Extras()...)
	var (
		exps    []Experiment
		unknown []string
	)
	for _, id := range ids {
		if i := slices.IndexFunc(all, func(e Experiment) bool { return e.ID == id }); i >= 0 {
			exps = append(exps, all[i])
		} else if e, ok := loadPointByID(id); ok {
			exps = append(exps, e)
		} else {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("experiments: unknown experiment id(s) %s (valid: %s, or a load point loadcurve-c<2|3>-load<%%g in (0,1]>)",
			strings.Join(unknown, ", "), strings.Join(ValidIDs(), " "))
	}
	return exps, nil
}

// loadPointByID resolves id if it is a load point's canonical id.
func loadPointByID(id string) (Experiment, bool) {
	var (
		config int
		load   float64
	)
	if _, err := fmt.Sscanf(id, "loadcurve-c%d-load%g", &config, &load); err != nil {
		return Experiment{}, false
	}
	e, err := LoadPoint(config, load)
	return e, err == nil && e.ID == id
}
