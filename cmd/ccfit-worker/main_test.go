package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestRetryFlagsUnknown: a job runs once, so -retries and -retry-backoff
// are unknown flags and using one exits with status 2. The test binary
// re-runs itself as ccfit-worker to reach main's flag handling.
func TestRetryFlagsUnknown(t *testing.T) {
	if args := os.Getenv("CCFIT_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"ccfit-worker"}, strings.Fields(args)...)
		main()
		return
	}
	for _, args := range []string{"-retries 2", "-retry-backoff 1s"} {
		// A tool that accepted the flag would run until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestRetryFlagsUnknown$")
		cmd.Env = append(os.Environ(), "CCFIT_TEST_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined") {
			t.Errorf("ccfit-worker %s: %v, output:\n%s", args, err, out)
		}
	}
}
