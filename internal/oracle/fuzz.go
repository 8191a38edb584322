package oracle

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/route"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
)

// FuzzConfig is one fuzzed configuration: a named small topology, a
// scheme, a seed and a set of fixed-destination flows. It is the unit
// the property suite checks; FuzzInput.Decode produces it from the
// bytes the native fuzzer mutates and minimizes.
type FuzzConfig struct {
	Label  string
	Topo   string
	Scheme string
	Seed   int64
	Flows  []RefFlow
}

// TopoByName resolves the fuzzer's topology namespace: "starN" (one
// switch, N endpoints, 3 <= N <= 16), "config1" (the paper's 7-node
// network), "tree22"/"tree23" (2-ary 2- and 3-trees).
func TopoByName(name string) (*topo.Topology, route.TieBreak, error) {
	switch {
	case strings.HasPrefix(name, "star"):
		n, err := strconv.Atoi(name[len("star"):])
		if err != nil || n < 3 || n > 16 {
			return nil, nil, fmt.Errorf("oracle: bad star size in %q (want star3..star16)", name)
		}
		b := topo.NewBuilder(name)
		sw := b.AddSwitch("sw", n)
		for i := 0; i < n; i++ {
			e := b.AddEndpoint("")
			b.Connect(sw, i, e, 0)
		}
		t, err := b.Build()
		return t, nil, err
	case name == "config1":
		return topo.Config1(), nil, nil
	case name == "tree22" || name == "tree23":
		levels := 2
		if name == "tree23" {
			levels = 3
		}
		f, err := topo.KaryNTree(2, levels, sim.FlitBytes, topo.DefaultLinkDelay)
		if err != nil {
			return nil, nil, err
		}
		return f.Topology, f.DETTieBreak, nil
	case name == "leafspine":
		// 3 leaves x 2 endpoints over 2 spines: the smallest fabric that
		// exercises both the intra-leaf and the cross-spine path shapes.
		ls, err := topo.NewLeafSpine(3, 2, 2, 1, sim.FlitBytes, topo.DefaultLinkDelay)
		if err != nil {
			return nil, nil, err
		}
		return ls.Topology, ls.DETTieBreak, nil
	default:
		return nil, nil, fmt.Errorf("oracle: unknown topology %q (want starN, config1, tree22, tree23 or leafspine)", name)
	}
}

// fuzzTopos and fuzzSchemes are the decoder's choice pools. Schemes
// include the related-work extras — the metamorphic relations are
// scheme-independent, so every discipline should satisfy them.
var (
	fuzzTopos   = []string{"star3", "star4", "star5", "star6", "config1", "tree22", "tree23", "leafspine"}
	fuzzSchemes = []string{"1Q", "FBICM", "ITh", "CCFIT", "VOQnet", "DBBM", "VOQsw", "OBQA"}
)

// fuzzSizes are the packet-size choices; deliberately including sizes
// that do not divide any link bandwidth.
var fuzzSizes = []int{256, 512, 700, 1024, 1337, 1500, 2048}

// flowRecord is the width of one flow in FuzzInput.Flows (src, dst,
// start and length as little-endian uint16s, rate, size) and
// maxFuzzFlows caps how many leading records decode; bytes beyond them
// are ignored.
const (
	flowRecord   = 8
	maxFuzzFlows = 6
)

// FuzzInput is FuzzProperties' argument list: what `go test -fuzz`
// mutates and minimizes, what a corpus file under
// testdata/fuzz/FuzzProperties stores, and what the fixed-seed sweep of
// ccfit-verify draws from its rng.
type FuzzInput struct {
	Topo, Scheme uint8
	Seed         uint32
	Flows        []byte
}

// Decode is total: every input names one configuration CheckConfig can
// run, and equal inputs name equal configurations. Each flow is one
// fixed-width record, so a minimizer that cuts bytes drops whole flows.
// Flows may saturate sources or destinations — the properties that need
// the unstalled regime detect and skip it.
func (in FuzzInput) Decode() FuzzConfig {
	cfg := FuzzConfig{
		Topo:   fuzzTopos[int(in.Topo)%len(fuzzTopos)],
		Scheme: fuzzSchemes[int(in.Scheme)%len(fuzzSchemes)],
		Seed:   int64(in.Seed%1_000_000) + 1,
	}
	t, _, err := TopoByName(cfg.Topo)
	if err != nil {
		panic(err) // decoder and namespace ship together
	}
	ne := t.NumEndpoints()
	for i := 0; i < maxFuzzFlows && (i+1)*flowRecord <= len(in.Flows); i++ {
		rec := in.Flows[i*flowRecord:]
		src := int(rec[0]) % ne
		dst := int(rec[1]) % (ne - 1)
		if dst >= src {
			dst++
		}
		start := sim.Cycle(binary.LittleEndian.Uint16(rec[2:]) % 20_000)
		length := sim.Cycle(5_000 + int(binary.LittleEndian.Uint16(rec[4:]))%35_000)
		cfg.Flows = append(cfg.Flows, RefFlow{
			ID:    i,
			Src:   src,
			Dst:   dst,
			Start: start,
			End:   start + length,
			Rate:  0.05 + 0.75*float64(rec[6])/255,
			Size:  fuzzSizes[int(rec[7])%len(fuzzSizes)],
		})
	}
	return cfg
}

// Corpus renders the input as a `go test fuzz v1` corpus file: saved
// under internal/oracle/testdata/fuzz/FuzzProperties/NAME it replays
// with `go test -run 'FuzzProperties/NAME' ./internal/oracle`.
func (in FuzzInput) Corpus() string {
	return fmt.Sprintf("go test fuzz v1\nbyte(%q)\nbyte(%q)\nuint32(%d)\n[]byte(%q)\n",
		in.Topo, in.Scheme, in.Seed, in.Flows)
}

// Sweep is the fixed-seed campaign of ccfit-verify and `go test`: iters
// inputs drawn from seed (2 to 6 flows each), decoded and checked in
// parallel. Each finding names the failing configuration, its property
// violations and the corpus file that replays it.
func Sweep(ctx context.Context, iters int, seed int64, workers int) ([]string, error) {
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]FuzzInput, iters)
	configs := make([]FuzzConfig, iters)
	for i := range inputs {
		in := FuzzInput{Topo: uint8(rng.Intn(256)), Scheme: uint8(rng.Intn(256)), Seed: rng.Uint32()}
		in.Flows = make([]byte, flowRecord*(2+rng.Intn(5)))
		for j := range in.Flows {
			in.Flows[j] = byte(rng.Intn(256))
		}
		inputs[i], configs[i] = in, in.Decode()
	}
	failed := make([][]error, iters)
	runner.ForEach(ctx, iters, workers, func(i int) { failed[i] = CheckConfig(configs[i]) })
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var findings []string
	for i, errs := range failed {
		if len(errs) == 0 {
			continue
		}
		line := fmt.Sprintf("config %d (%s/%s, %d flows)", i, configs[i].Topo, configs[i].Scheme, len(configs[i].Flows))
		for _, e := range errs {
			line += "\n    " + e.Error()
		}
		findings = append(findings, line+"\n    corpus file:\n"+inputs[i].Corpus())
	}
	return findings, nil
}
