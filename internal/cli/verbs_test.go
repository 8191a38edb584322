package cli

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestVerbFlags: every verb parses its command line on the shared
// declaration — an unknown flag is a usage error (exit 2), -h prints
// the verb's usage and exits 0 — and ccfit-run -h lists the verbs.
func TestVerbFlags(t *testing.T) {
	docs := map[string]string{"sweep": sweepDoc, "loadcurve": loadCurveDoc, "sim": simDoc}
	for _, v := range verbs {
		t.Run(v.name, func(t *testing.T) {
			code, stdout, stderr := drive(verb(v.name), "-no-such-flag")
			if code != 2 || stdout != "" || !strings.Contains(stderr, "flag provided but not defined") {
				t.Errorf("unknown flag: exit %d, stdout %q, stderr %q", code, stdout, stderr)
			}
			code, _, stderr = drive(verb(v.name), "-h")
			want := "usage: ccfit-run " + v.name + " [flags]\n\n" + docs[v.name] + "\nflags:\n"
			if code != 0 || docs[v.name] == "" || !strings.HasPrefix(stderr, want) {
				t.Errorf("-h: exit %d, stderr %q", code, stderr)
			}
		})
	}
	code, _, stderr := drive(Main, "-h")
	if code != 0 {
		t.Fatalf("ccfit-run -h: exit %d", code)
	}
	for _, v := range verbs {
		if !strings.Contains(stderr, "ccfit-run "+v.name+" ") {
			t.Errorf("ccfit-run -h does not list %s:\n%s", v.name, stderr)
		}
	}
	if _, _, stderr := drive(tools[1].run, "-h"); strings.Contains(stderr, "verbs") {
		t.Errorf("ccfit-figures takes no verbs, yet -h lists them:\n%s", stderr)
	}
}

// TestNoExperimentIsAVerb: the first argument picks a verb only because
// no experiment id can be one.
func TestNoExperimentIsAVerb(t *testing.T) {
	ids := experiments.ValidIDs()
	for _, v := range verbs {
		if slices.Contains(ids, v.name) {
			t.Errorf("experiment id %q is also a verb", v.name)
		}
	}
}

// TestRemovedVerbs: a verb that is gone is an experiment id nobody
// registered — an error before anything simulates, not a silent figure
// run.
func TestRemovedVerbs(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		// The oracle's gates are its tests: go test ./internal/oracle.
		{[]string{"verify", "-mode=full"}, "unknown experiment id(s) verify, -mode=full"},
	} {
		code, stdout, stderr := drive(Main, c.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q (want %q)", c.args, code, stdout, stderr, c.want)
		}
	}
}

// TestFlagsFirstRunsFigures: a command line that starts with flags (the
// shape the benchmark runs) is the figures, as it was before the verbs.
func TestFlagsFirstRunsFigures(t *testing.T) {
	args := []string{"-workers", "2", "-seed", "1", "fig7a"}
	code, got, stderr := drive(Main, args...)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	_, want, _ := drive(tools[1].run, args...)
	if got == "" || got != want {
		t.Errorf("ccfit-run %v differs from ccfit-figures\n--- ccfit-run\n%s--- ccfit-figures\n%s", args, got, want)
	}
}

// TestSimGolden: the drop-policy flap script replays to the committed
// CSV byte for byte — the one run that reaches the refund of a dropped
// packet's credit, which has to restart whatever input port or end node
// was waiting for it.
func TestSimGolden(t *testing.T) {
	want, err := os.ReadFile("../../scripts/ci/testdata/flap-drop-degrade.csv")
	if err != nil {
		t.Fatal(err)
	}
	code, stdout, stderr := drive(verb("sim"), "-config", "1", "-ms", "6", "-faults", "../../scripts/faults/flap-drop-degrade.json")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from scripts/ci/testdata/flap-drop-degrade.csv:\n%s", stdout)
	}
	for _, line := range []string{
		`ccfit-run sim: fault script "flap-drop-degrade": 4 event(s)`,
		"CCFIT config#1: offered 10571 pkts (21649408 B), delivered 10507 pkts (21518336 B), avg latency 22426 ns",
	} {
		if !strings.Contains(stderr, line+"\n") {
			t.Errorf("stderr lacks %q:\n%s", line, stderr)
		}
	}
}

// TestSimRejects: a bad configuration or scheme is an error (exit 1)
// before anything reaches stdout.
func TestSimRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-config", "9"}, "ccfit-run sim: unknown config 9"},
		{[]string{"-config", "1", "-case", "3", "-trees", "5", "-ms", "0.1"}, "config 1 runs case [1], not 3"},
		{[]string{"-config", "3", "-case", "2"}, "config 3 runs case [4], not 2"},
		{[]string{"-config", "4", "-case", "2", "-trees", "9"}, "config 4 runs case [5], not 2"},
		{[]string{"-config", "4", "-trees", "9"}, "-trees shapes case 4, which only config 3 runs"},
		{[]string{"-scheme", "BOGUS"}, "unknown scheme \"BOGUS\""},
		{[]string{"-faults", "no-such-script.json"}, "ccfit-run sim: "},
	} {
		code, stdout, stderr := drive(verb("sim"), c.args...)
		if code != 1 || stdout != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q (want %q)", c.args, code, stdout, stderr, c.want)
		}
	}
}
