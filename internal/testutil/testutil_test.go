package testutil

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestDigest(t *testing.T) {
	var a, b Digest
	a.Addf("x=%d", 1)
	a.Addf("y=%d", 2)
	b.Addf("x=%d", 1)
	b.Addf("y=%d", 2)
	if a.Sum() != b.Sum() {
		t.Fatal("identical texts hash differently")
	}
	if a.String() != "x=1\ny=2\n" {
		t.Fatalf("text %q", a.String())
	}
	var c Digest
	c.Addf("x=%d", 1)
	c.Addf("y=%d", 3)
	if a.Sum() == c.Sum() {
		t.Fatal("different texts collide")
	}
}

func TestFirstDiff(t *testing.T) {
	if d := FirstDiff("a\nb\n", "a\nb\n"); d != "" {
		t.Fatalf("identical texts differ: %q", d)
	}
	d := FirstDiff("a\nb\nc\n", "a\nX\nc\n")
	if !strings.Contains(d, "line 2") || !strings.Contains(d, "X") {
		t.Fatalf("diff %q misses the diverging line", d)
	}
	// Unequal lengths: the missing tail is the difference.
	if d := FirstDiff("a\n", "a\nb\n"); !strings.Contains(d, "b") {
		t.Fatalf("tail diff %q", d)
	}
}

func TestJSONDigest(t *testing.T) {
	type v struct{ A, B int }
	d1, err := JSONDigest(v{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	d2 := MustJSONDigest(t, v{1, 2})
	if d1 != d2 {
		t.Fatal("digest not stable")
	}
	if d3 := MustJSONDigest(t, v{1, 3}); d3 == d1 {
		t.Fatal("different values collide")
	}
	if _, err := JSONDigest(func() {}); err == nil {
		t.Fatal("unmarshalable value accepted")
	}
}

// TestGoldenRoundTrip drives the full golden-map workflow against a
// temp dir: update writes, compare passes, a mutation is detected via
// a fresh testing.T so this test can observe the failure.
func TestGoldenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "golden.json")
	got := map[string]string{"k1": "v1", "k2": "v2"}
	CompareGoldenMap(t, path, got, true)  // update
	CompareGoldenMap(t, path, got, false) // clean compare on this T

	// Mismatch, missing and extra keys must all fail — run them on a
	// scratch T and inspect it.
	for name, bad := range map[string]map[string]string{
		"changed": {"k1": "CHANGED", "k2": "v2"},
		"missing": {"k1": "v1"},
		"extra":   {"k1": "v1", "k2": "v2", "k3": "v3"},
	} {
		scratch := &testing.T{}
		CompareGoldenMap(scratch, path, bad, false)
		if !scratch.Failed() {
			t.Errorf("%s golden map accepted", name)
		}
	}
}

func TestReadGoldenJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.json")
	WriteGoldenJSON(t, path, map[string]int{"n": 7})
	var back map[string]int
	ReadGoldenJSON(t, path, &back)
	if back["n"] != 7 {
		t.Fatalf("round trip lost data: %v", back)
	}
}

// TestGoroutineBaseline: the count settles once a goroutine the test
// started has ended, and a count that never falls to the baseline gives
// up after the wait. (Asserting that it does not settle while the extra
// goroutine runs would race with the previous test's goroutine, which
// may still be exiting when this one starts.)
func TestGoroutineBaseline(t *testing.T) {
	if n, ok := settle(0, 20*time.Millisecond); ok {
		t.Fatalf("settled at %d goroutines, below the test's own", n)
	}
	base := runtime.NumGoroutine()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		<-stop
	}()
	close(stop)
	<-done
	if n, ok := settle(base, 5*time.Second); !ok {
		t.Fatalf("%d goroutines after the extra one ended, %d before", n, base)
	}
	GoroutineBaseline(t)()
}
