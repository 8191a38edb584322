package fault_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestShippedScripts: every script under scripts/faults (CI's fault and
// workload smokes replay them) loads, validates, fingerprints the same
// on every load and differently from every other script, and does its
// work when injected into Config #1: each link window is applied, and a
// noise event sends messages.
func TestShippedScripts(t *testing.T) {
	paths, err := filepath.Glob("../../scripts/faults/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped scripts: %v", err)
	}
	seen := map[string]string{} // fingerprint -> path
	for _, path := range paths {
		s, err := fault.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if want := strings.TrimSuffix(filepath.Base(path), ".json"); s.Name != want {
			t.Errorf("%s: name %q, want the file's %q", path, s.Name, want)
		}
		again, err := fault.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		fp := s.Fingerprint()
		if again.Fingerprint() != fp {
			t.Errorf("%s: two loads fingerprint differently", path)
		}
		if other, dup := seen[fp]; dup {
			t.Errorf("%s and %s share a fingerprint", path, other)
		}
		seen[fp] = path

		var want fault.Stats
		var end sim.Cycle
		for i := range s.Events {
			e := &s.Events[i]
			switch e.Kind {
			case fault.LinkDegrade:
				want.Degrades++
			case fault.LinkFlap:
				want.Flaps++
			}
			end = max(end, e.Start()+e.Window())
		}
		n, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		in, err := n.InjectFaults(s)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		n.Run(end + 1_000)
		got := in.Stats()
		if got.Degrades != want.Degrades || got.Flaps != want.Flaps {
			t.Errorf("%s: %d degrades and %d flaps applied, want %d and %d", path, got.Degrades, got.Flaps, want.Degrades, want.Flaps)
		}
		if got == (fault.Stats{}) {
			t.Errorf("%s: the injector did nothing", path)
		}
	}
}
