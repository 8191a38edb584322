// Package testutil holds the golden-digest helpers shared by test
// suites across the repo: building and hashing state descriptions,
// canonical JSON digests, and golden-file load/compare/update plumbing
// with the conventional -update flag workflow. Extracting them here
// keeps the digest format identical everywhere, so "what exactly is
// pinned" has one answer (and one place to change it). GoroutineBaseline
// is the one leak check the service packages' shutdown tests end with.
//
// The package deliberately depends on nothing but the standard library:
// in-package test files (package foo, not foo_test) may import it
// without creating an import cycle through the package under test.
package testutil

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// Digest accumulates a textual state description and hashes it. Use it
// to pin "everything a replay must reproduce": append every counter and
// statistic that matters with Addf, then compare Sum (or the full text,
// when a mismatch should print the first diverging line).
type Digest struct {
	b strings.Builder
}

// Addf appends one formatted line to the digest text.
func (d *Digest) Addf(format string, args ...any) {
	fmt.Fprintf(&d.b, format+"\n", args...)
}

// String returns the accumulated text (useful in failure messages).
func (d *Digest) String() string { return d.b.String() }

// Sum returns the SHA-256 hex of the accumulated text.
func (d *Digest) Sum() string {
	sum := sha256.Sum256([]byte(d.b.String()))
	return hex.EncodeToString(sum[:])
}

// JSONDigest returns the SHA-256 hex of v's JSON encoding — the digest
// of record for pinned simulation results (encoding/json is stable for
// a fixed struct definition, so the digest only moves when the data or
// the schema does).
func JSONDigest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// MustJSONDigest is JSONDigest failing the test on a marshal error.
func MustJSONDigest(t testing.TB, v any) string {
	t.Helper()
	d, err := JSONDigest(v)
	if err != nil {
		t.Fatalf("testutil: digest: %v", err)
	}
	return d
}

// FirstDiff returns the first line where two digest texts diverge, for
// failure messages that point at the offending counter instead of two
// opaque hashes. It returns "" when the texts are identical.
func FirstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		av, bv := "", ""
		if i < len(al) {
			av = al[i]
		}
		if i < len(bl) {
			bv = bl[i]
		}
		if av != bv {
			return fmt.Sprintf("line %d:\n  a: %s\n  b: %s", i+1, av, bv)
		}
	}
	return ""
}

// CompareGoldenMap compares got against the JSON string map stored at
// path. With update=true it rewrites the file (keys sorted) and
// returns; otherwise a missing file is fatal with regeneration advice,
// and every mismatched, missing or unexpected key is reported.
func CompareGoldenMap(t testing.TB, path string, got map[string]string, update bool) {
	t.Helper()
	if update {
		WriteGoldenJSON(t, path, sortedMap(got))
		t.Logf("wrote %d entries to %s", len(got), path)
		return
	}
	var want map[string]string
	ReadGoldenJSON(t, path, &want)
	if len(want) != len(got) {
		t.Errorf("golden file %s has %d entries, run produced %d", path, len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("%s: no value produced", k)
		} else if g != w {
			t.Errorf("%s: got %s, want %s (pinned behaviour changed)", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: produced but not in golden file (regenerate with the update flag)", k)
		}
	}
}

// sortedMap re-inserts keys in sorted order so MarshalIndent output is
// deterministic (encoding/json sorts map keys anyway; this documents
// the intent and keeps parity with the historical format).
func sortedMap(m map[string]string) map[string]string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]string, len(m))
	for _, k := range keys {
		out[k] = m[k]
	}
	return out
}

// WriteGoldenJSON writes v as indented JSON at path, creating parent
// directories — the update side of every golden-file workflow.
func WriteGoldenJSON(t testing.TB, path string, v any) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ReadGoldenJSON loads the golden file at path into v; a missing or
// corrupt file is fatal with advice to regenerate.
func ReadGoldenJSON(t testing.TB, path string, v any) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with the package's update flag): %v", err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("corrupt golden file %s: %v", path, err)
	}
}
