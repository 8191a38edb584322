package oracle

import (
	"context"
	"testing"
)

// TestVerifyUnknownMode: "fuzz" stopped being a mode when the campaign
// moved under `go test -fuzz FuzzProperties`.
func TestVerifyUnknownMode(t *testing.T) {
	t.Parallel()
	for _, mode := range []string{"exhaustive", "fuzz"} {
		if _, err := Verify(context.Background(), VerifyOptions{Mode: mode}); err == nil {
			t.Errorf("unknown mode %q accepted", mode)
		}
	}
}
