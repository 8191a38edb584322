package oracle

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// seedFlows is two flow records: enough traffic to exercise every
// property, small enough that the fuzzer's first mutations stay cheap.
var seedFlows = []byte{0, 1, 0x10, 0x00, 0x00, 0x20, 0x80, 3, 2, 0, 0x00, 0x08, 0x00, 0x40, 0xc0, 6}

// FuzzProperties is the open-ended campaign over the metamorphic
// property suite: the native fuzzer mutates a FuzzInput, minimizes a
// failure (cutting bytes drops whole flow records) and writes it under
// testdata/fuzz/FuzzProperties, from where plain `go test` replays it.
// The nightly job runs it for 45 minutes; the seeds — one per topology
// of the pool, each under a different scheme — run on every `go test`.
func FuzzProperties(f *testing.F) {
	for i := range fuzzTopos {
		f.Add(uint8(i), uint8(i), uint32(i), seedFlows)
	}
	f.Fuzz(func(t *testing.T, topo, scheme uint8, seed uint32, flows []byte) {
		cfg := FuzzInput{Topo: topo, Scheme: scheme, Seed: seed, Flows: flows}.Decode()
		for _, err := range CheckConfig(cfg) {
			t.Errorf("%s/%s seed %d, %d flow(s): %v", cfg.Topo, cfg.Scheme, cfg.Seed, len(cfg.Flows), err)
		}
	})
}

// TestFuzzQuick runs Sweep over every topology and scheme in the
// decoder's pools: 200 configurations, 8 under -short.
func TestFuzzQuick(t *testing.T) {
	t.Parallel()
	iters := 200
	if testing.Short() {
		iters = 8
	}
	findings, err := Sweep(context.Background(), iters)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("sweep failure: %s", f)
	}
}

// randomInput draws an input whose Flows length is anything from empty
// to past the flow cap, record-aligned or not.
func randomInput(rng *rand.Rand) FuzzInput {
	in := FuzzInput{Topo: uint8(rng.Intn(256)), Scheme: uint8(rng.Intn(256)), Seed: rng.Uint32()}
	in.Flows = make([]byte, rng.Intn(flowRecord*(maxFuzzFlows+2)))
	rng.Read(in.Flows)
	return in
}

// TestDecodeConfigDeterministic: the same bytes must name the same
// configuration, or a corpus file replays something else than what
// failed.
func TestDecodeConfigDeterministic(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		in := randomInput(rng)
		twin := in
		twin.Flows = bytes.Clone(in.Flows)
		if a, b := in.Decode(), twin.Decode(); !reflect.DeepEqual(a, b) {
			t.Fatalf("input %d decoded to two configs:\n%+v\n%+v", i, a, b)
		}
	}
}

// TestDecodeConfigValid: the decoder is total. Every byte string names
// a resolvable topology and in-range flows (sources/destinations exist,
// windows non-empty, rates in (0,1]) — one per whole record up to the
// cap — and the edge inputs run through the whole property suite.
func TestDecodeConfigValid(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		in := randomInput(rng)
		cfg := in.Decode()
		tp, _, err := TopoByName(cfg.Topo)
		if err != nil {
			t.Fatalf("input %d: %v", i, err)
		}
		if _, err := NewRefSim(tp, cfg.Flows); err != nil {
			t.Fatalf("input %d (%+v): decoded invalid flows: %v", i, in, err)
		}
		if want := min(len(in.Flows)/flowRecord, maxFuzzFlows); len(cfg.Flows) != want {
			t.Fatalf("input %d: %d bytes decoded to %d flows, want %d", i, len(in.Flows), len(cfg.Flows), want)
		}
	}
	for _, flows := range [][]byte{nil, make([]byte, flowRecord-1), bytes.Repeat([]byte{0xff}, 100)} {
		in := FuzzInput{Topo: 0xff, Scheme: 0xff, Seed: 0xffffffff, Flows: flows}
		if errs := CheckConfig(in.Decode()); len(errs) > 0 {
			t.Errorf("edge input %+v: %v", in, errs)
		}
	}
}

// TestCorpusFile pins Corpus to the committed corpus entry: the file is
// parsed by FuzzProperties on every `go test`, so equality here means
// what the sweep prints is what the native driver reads.
func TestCorpusFile(t *testing.T) {
	t.Parallel()
	in := FuzzInput{Topo: 7, Scheme: 3, Seed: 12, Flows: append(bytes.Clone(seedFlows), 0xfe, 0x80, 0x00)}
	want, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzProperties", "leafspine-ccfit"))
	if err != nil {
		t.Fatal(err)
	}
	if got := in.Corpus(); got != string(want) {
		t.Errorf("Corpus() =\n%s\ncommitted file:\n%s", got, want)
	}
}

// TestTopoByName covers the namespace's edges.
func TestTopoByName(t *testing.T) {
	t.Parallel()
	for _, name := range []string{"star3", "star16", "config1", "tree22", "tree23", "leafspine"} {
		if _, _, err := TopoByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"star2", "star17", "starx", "mesh44", ""} {
		if _, _, err := TopoByName(name); err == nil {
			t.Errorf("%s: want error, got topology", name)
		}
	}
	// A hand-written config with a namespace typo is a reported failure.
	if errs := CheckConfig(FuzzConfig{Topo: "mesh99", Scheme: "1Q", Seed: 1}); len(errs) == 0 {
		t.Error("config with unknown topology passed the property suite")
	}
}
