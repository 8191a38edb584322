package experiments

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/testutil"
)

// The work ledger pins every count the engine's speed-ups rest on, one
// golden row per golden cell, read off the runs TestGoldenDigests makes:
// the engine's events by origin and ticks, the events pending at the end,
// what the devices and generators skipped (network.Elided) and how many
// packets the pool allocated and reused. A golden digest says what a run
// computed; its row says how much work the engine did to compute it, so a
// change that keeps every digest and costs more work (a port that never
// cools, a switch that never naps, a pool that keeps nothing) fails here
// by name. Golden rows compare exactly; -update-golden rewrites them and
// logs each "cell field old → new".
//
// Beside them sit eight allocation ceilings. A network's per-destination
// state (AdVOQs, throttle rows) is created on first use and a port's
// queues are one allocation, so what a build allocates grows with the
// ports and links it wires, not with endpoints squared; one allocation per
// (node, destination) pair adds back 512² = 262 144 on Config #4, 64² =
// 4 096 on Config #3 and 256 on the leaf-spine fabric. A short finite-flow
// cell — Build, RunAudited and Harvest, as a job runs it — costs its
// network plus one collector record, one wake-up closure and two window
// edges a flow (with per-flow series grown one bin at a time in a map, FCT
// records in a second map and two engine events armed a flow, the two
// cells cost 5 887 allocations of 1 110 kB and 4 783 of 748 kB).
// Allocations and kB depend on the toolchain, so each is held under a
// ceiling a few per cent above the count measured when it was set (-v
// logs today's). Nothing rewrites a ceiling: lower one when a change
// lowers its count, raise one only with the reason in CHANGES.md.
const ledgerPath = "testdata/work_ledger.json"

type workLedger struct {
	Golden        map[string]ledgerRow // exact, by golden cell
	BuildCeilings map[string]ledgerRow // Build's allocations, by exp/scheme
	CellCeilings  map[string]ledgerRow // a whole cell's allocations and kB
}

// A ledgerRow maps a field to its value.
type ledgerRow map[string]int64

func readLedger(t *testing.T, path string) workLedger {
	t.Helper()
	var l workLedger
	testutil.ReadGoldenJSON(t, path, &l)
	return l
}

// updateLedger replaces the golden rows of the ledger at path with rows,
// keeping its ceilings, and returns what moved.
func updateLedger(t *testing.T, path string, rows map[string]ledgerRow) (diff []string) {
	t.Helper()
	l := readLedger(t, path)
	diff = diffLedger(l.Golden, rows)
	l.Golden = rows
	testutil.WriteGoldenJSON(t, path, l)
	return diff
}

// workRow reads a finished run's golden row.
func workRow(n *network.Network) ledgerRow {
	b, err := json.Marshal(n.Elided())
	if err != nil {
		panic(err)
	}
	var row ledgerRow
	if err := json.Unmarshal(b, &row); err != nil {
		panic(err)
	}
	row["Pending"] = int64(n.Eng.Pending())
	return row
}

// diffLedger returns one "row field old → new" line for every value that
// moved from want to got, and one for every row or field only one side
// has.
func diffLedger(want, got map[string]ledgerRow) (diff []string) {
	for _, name := range keys(want, got) {
		w, g := want[name], got[name]
		if w == nil || g == nil {
			diff = append(diff, fmt.Sprintf("%s: pinned %v, measured %v", name, w, g))
			continue
		}
		for _, f := range keys(w, g) {
			old, pinned := w[f]
			v, measured := g[f]
			switch {
			case !pinned || !measured:
				diff = append(diff, fmt.Sprintf("%s %s: pinned %t, measured %t", name, f, pinned, measured))
			case v != old:
				diff = append(diff, fmt.Sprintf("%s %s %d → %d", name, f, old, v))
			}
		}
	}
	return diff
}

// overCeiling returns a failure for every field of got above its ceiling,
// and for every ceiling got did not measure or measured as nothing.
func overCeiling(name string, got, ceilings ledgerRow) (failures []string) {
	for _, f := range keys(ceilings, nil) {
		switch v, c := got[f], ceilings[f]; {
		case v <= 0:
			failures = append(failures, fmt.Sprintf("%s %s measured %d: the measurement is broken", name, f, v))
		case v > c:
			failures = append(failures, fmt.Sprintf("%s %s %d is above its ceiling %d", name, f, v, c))
		}
	}
	return failures
}

// keys returns the row or field names of a and b, sorted.
func keys[V any](a, b map[string]V) []string {
	var ks []string
	for k := range a {
		ks = append(ks, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// assertWorkRows holds what makes a golden row worth pinning: the engine
// skipped work and the pool recycled packets (end nodes may never skip:
// DBBM, OBQA and VOQsw on Config #3 do not), and the overflow heap takes
// the few far timers only.
func assertWorkRows(t *testing.T, rows map[string]ledgerRow) {
	t.Helper()
	for _, name := range keys(rows, nil) {
		r := rows[name]
		if r["CoolPortCycles"] == 0 || r["SwitchCyclesSlept"] == 0 || r["PacketsReused"] == 0 {
			t.Errorf("%s: nothing elided or reused (%v): the row proves nothing", name, r)
		}
		if r["HeapEvents"] == 0 || r["HeapEvents"]*20 > r["WheelEvents"] {
			t.Errorf("%s: %d heap events against %d from the wheel", name, r["HeapEvents"], r["WheelEvents"])
		}
	}
}

// TestEngineWorkPinned runs fig7a's golden cells on their own, -short
// included, and checks their rows; TestGoldenDigests checks all 27.
func TestEngineWorkPinned(t *testing.T) {
	_, got := runGolden(t, goldenCases[:1])
	assertWorkRows(t, got)
	pinned, want := readLedger(t, ledgerPath).Golden, make(map[string]ledgerRow)
	for name := range got {
		want[name] = pinned[name]
	}
	report := t.Errorf
	if *updateGolden {
		report = t.Logf // TestGoldenDigests rewrites the rows
	}
	for _, d := range diffLedger(want, got) {
		report("%s", d)
	}
}

// allocCell builds the named exp/scheme cell's network.
func allocCell(t *testing.T, name string) (Experiment, func() *network.Network) {
	t.Helper()
	id, scheme, _ := strings.Cut(name, "/")
	exp, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	p, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	return exp, func() *network.Network {
		n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
}

// TestBuildAllocsPinned holds each build under its ceiling.
func TestBuildAllocsPinned(t *testing.T) {
	ceilings := readLedger(t, ledgerPath).BuildCeilings
	for _, name := range keys(ceilings, nil) {
		_, build := allocCell(t, name)
		allocs := int64(testing.AllocsPerRun(1, func() { build() }))
		t.Logf("%s: Build makes %d allocations", name, allocs)
		for _, f := range overCeiling(name, ledgerRow{"Allocs": allocs}, ceilings[name]) {
			t.Error(f)
		}
	}
}

// TestCellAllocsPinned holds each whole cell's allocations and kB under
// their ceilings. MemStats deltas are process-wide, so it measures while
// no other test runs.
func TestCellAllocsPinned(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ceilings := readLedger(t, ledgerPath).CellCeilings
	for _, name := range keys(ceilings, nil) {
		exp, build := allocCell(t, name)
		_, scheme, _ := strings.Cut(name, "/")
		cell := func() {
			n := build()
			if err := n.RunAudited(exp.Duration); err != nil {
				t.Fatal(err)
			}
			Harvest(exp, scheme, 1, n)
		}
		cell() // warm-up: state a process builds once (type caches, pools)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cell()
		runtime.ReadMemStats(&after)
		got := ledgerRow{"Allocs": int64(after.Mallocs - before.Mallocs), "KB": int64(after.TotalAlloc-before.TotalAlloc) / 1000}
		t.Logf("%s: a cell makes %d allocations of %d kB", name, got["Allocs"], got["KB"])
		for _, f := range overCeiling(name, got, ceilings[name]) {
			t.Error(f)
		}
	}
}

func TestCheckLedger(t *testing.T) {
	want := map[string]ledgerRow{"fig7a/CCFIT": {"Ticks": 66980, "Pending": 22}}
	moved := map[string]ledgerRow{"fig7a/CCFIT": {"Ticks": 66981, "Pending": 22}}
	if diff := diffLedger(want, want); len(diff) != 0 {
		t.Errorf("a row at its pins: %q", diff)
	}
	if diff := diffLedger(want, moved); len(diff) != 1 || diff[0] != "fig7a/CCFIT Ticks 66980 → 66981" {
		t.Errorf("an exact field moved by 1: %q", diff)
	}
	if diff := diffLedger(want, map[string]ledgerRow{"fig7a/1Q": {"Ticks": 66980, "Pending": 22}}); len(diff) != 2 {
		t.Errorf("a row only one side has: %q", diff)
	}
	if diff := diffLedger(want, map[string]ledgerRow{"fig7a/CCFIT": {"Ticks": 66980}}); len(diff) != 1 {
		t.Errorf("a field only one side has: %q", diff)
	}

	ceilings := ledgerRow{"Allocs": 3300, "KB": 595}
	if f := overCeiling("xleafincast/CCFIT", ledgerRow{"Allocs": 3300, "KB": 595}, ceilings); len(f) != 0 {
		t.Errorf("a cell at its ceilings: %q", f)
	}
	if f := overCeiling("xleafincast/CCFIT", ledgerRow{"Allocs": 3301, "KB": 538}, ceilings); len(f) != 1 || f[0] != "xleafincast/CCFIT Allocs 3301 is above its ceiling 3300" {
		t.Errorf("an allocation row one above its ceiling: %q", f)
	}
	if f := overCeiling("xleafincast/CCFIT", ledgerRow{"Allocs": 3192}, ceilings); len(f) != 1 {
		t.Errorf("a ceiling with nothing measured: %q", f)
	}

	path := filepath.Join(t.TempDir(), "ledger.json")
	testutil.WriteGoldenJSON(t, path, workLedger{
		Golden:       want,
		CellCeilings: map[string]ledgerRow{"xleafincast/CCFIT": ceilings},
	})
	if diff := updateLedger(t, path, moved); len(diff) != 1 {
		t.Errorf("update: %q", diff)
	}
	l := readLedger(t, path)
	if got := l.Golden["fig7a/CCFIT"]["Ticks"]; got != 66981 {
		t.Errorf("update wrote Ticks %d, want the measured 66981", got)
	}
	if got := l.CellCeilings["xleafincast/CCFIT"]; len(got) != 2 || got["Allocs"] != 3300 || got["KB"] != 595 {
		t.Errorf("update wrote the ceilings %v: it never writes one", got)
	}
}
