package fault

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseScript: Parse reads the JSON behind every -faults flag. It
// must never panic, and whatever it accepts is a valid script whose
// canonical encoding (the cache-key fingerprint) parses back to an
// equal script. The committed corpus (testdata/fuzz/FuzzParseScript) is
// the scripts shipped under scripts/faults.
func FuzzParseScript(f *testing.F) {
	f.Add([]byte(`{"events": [{"kind": "switch-stall", "swich": 7}]}`))
	f.Add([]byte(`{"events": [{"kind": "ctl-noise", "at": -1, "params": {"period": 1e9}}]} trailing`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted an invalid script: %v", err)
		}
		again, err := Parse([]byte(s.Fingerprint()))
		if err != nil {
			t.Fatalf("re-parse of an accepted script: %v\n%s", err, s.Fingerprint())
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("script changed across its canonical encoding:\n%s\n%s", s.Fingerprint(), again.Fingerprint())
		}
	})
}

// TestScriptSeedCorpus keeps the committed corpus equal to the shipped
// scripts (corpus files are `[]byte(%q)` under a version line).
func TestScriptSeedCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scripts", "faults", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped fault scripts found: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseScript", filepath.Base(p)))
		if err != nil || string(got) != want {
			t.Errorf("corpus entry for %s is stale (%v); want:\n%s", p, err, want)
		}
	}
}
