package invariant

import (
	"fmt"
	"strings"
	"testing"
)

func TestIsViolation(t *testing.T) {
	v := &Violation{Cycle: 42, Check: "watchdog", Detail: "no packet movement"}
	if !IsViolation(v) {
		t.Fatal("bare violation not detected")
	}
	// The runner wraps job errors; detection must see through wrapping.
	if !IsViolation(fmt.Errorf("job fig7a/CCFIT/seed1: %w", v)) {
		t.Fatal("wrapped violation not detected")
	}
	if IsViolation(nil) || IsViolation(fmt.Errorf("timeout")) {
		t.Fatal("non-violation classified as violation")
	}
}

func TestViolationError(t *testing.T) {
	v := &Violation{Cycle: 42, Check: "conservation", Detail: "pool out 10B != buffered 8B (off by +2B)"}
	msg := v.Error()
	for _, want := range []string{"conservation", "42", "pool out 10B"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q misses %q", msg, want)
		}
	}
}
