package oracle

import (
	"flag"
	"testing"

	"repro/internal/testutil"
)

var updateCurves = flag.Bool("update", false, "rewrite testdata/curve_digests.json from the current engine")

// TestGoldenCurves runs Figs. 7a, 8a and 9 under every scheme,
// re-asserts the figures' qualitative claims on the fresh runs, then
// pins each run's Result exactly by its JSON digest. With -update it
// rewrites testdata/curve_digests.json instead — only once the shape
// checks pass, so a broken engine cannot silently mint new digests.
func TestGoldenCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("13 figure runs (~6 s wall); skipped in -short")
	}
	results, err := RunCurves()
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range CheckCurveShapes(results) {
		t.Error(err)
	}
	if *updateCurves && t.Failed() {
		t.Fatal("refusing to rewrite the curve digests while shape checks fail")
	}
	got := make(map[string]string, len(results))
	for key, r := range results {
		got[key] = testutil.MustJSONDigest(t, r)
	}
	testutil.CompareGoldenMap(t, "testdata/curve_digests.json", got, *updateCurves)
}
