package mutants

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "run every mutant and rewrite testdata/kill_matrix.txt")

const (
	matrixFile  = "testdata/kill_matrix.txt"
	moduleRoot  = "../.."
	gateTimeout = "60s"
	soleMarker  = "== sole kills"
	// workers is how many mutants run at once, each in a copy of its
	// own: one mutant's gates keep about one core and a half busy.
	workers = 2
	// vetFlags is CI's analyzer set (.github/workflows/ci.yml, Vet).
	vetFlags = "-copylocks -loopclosure -atomic -unusedresult"
)

const (
	killed   = "killed"
	survived = "survived"
	timedOut = "timeout"
)

func (g gate) String() string {
	s := "test "
	if g.race {
		s += "-race "
	}
	s += g.pkg
	if run := cmp.Or(g.sub, g.run); run != "" {
		s += " -run " + run
	}
	return s
}

// ownGates are the tests of each package the mutant edits.
func (m mutant) ownGates() []gate {
	var gs []gate
	for _, e := range m.edits {
		g := gate{pkg: "./" + path.Dir(e.file)}
		if !slices.Contains(gs, g) {
			gs = append(gs, g)
		}
	}
	return gs
}

// testGates are the go test runs of m: its own packages, then the
// gates it names.
func (m mutant) testGates() []gate {
	gs := m.ownGates()
	for _, g := range m.gates {
		if !slices.Contains(gs, g) {
			gs = append(gs, g)
		}
	}
	return gs
}

// columns lists m's gates in matrix order.
func (m mutant) columns() []string {
	cols := []string{"vet"}
	for _, g := range m.testGates() {
		cols = append(cols, g.String())
	}
	return cols
}

// TestTable holds the table to the tree it mutates and to the committed
// matrix, without running anything.
func TestTable(t *testing.T) {
	if len(table) < 20 {
		t.Errorf("%d mutants, want at least 20", len(table))
	}
	seen := map[string]bool{}
	for _, m := range table {
		if m.name == "" || m.reason == "" || len(m.edits) == 0 {
			t.Errorf("mutant %q: needs a name, a reason and an edit", m.name)
		}
		if seen[m.name] {
			t.Errorf("mutant %q listed twice", m.name)
		}
		seen[m.name] = true
		files := map[string]string{}
		for _, e := range m.edits {
			src, ok := files[e.file]
			if !ok {
				b, err := os.ReadFile(filepath.Join(moduleRoot, filepath.FromSlash(e.file)))
				if err != nil {
					t.Errorf("mutant %s: %v", m.name, err)
					continue
				}
				src = string(b)
			}
			if n := strings.Count(src, e.old); n != 1 {
				t.Errorf("mutant %s: %s holds its old text %d times, want once:\n%s", m.name, e.file, n, e.old)
				continue
			}
			files[e.file] = strings.Replace(src, e.old, e.new, 1)
		}
	}

	want := map[string]bool{}
	for _, m := range table {
		for _, c := range m.columns() {
			want[m.name+"\t"+c] = true
		}
	}
	got, err := readPairs(matrixFile)
	if err != nil {
		t.Fatal(err)
	}
	for p := range want {
		if _, ok := got[p]; !ok {
			t.Errorf("%s lacks %q; rewrite it with -update", matrixFile, p)
		}
	}
	for p := range got {
		if !want[p] {
			t.Errorf("%s lists %q, which the table does not; rewrite it with -update", matrixFile, p)
		}
	}
}

// readPairs reads the matrix section of a kill matrix: "mutant\tgate"
// to the recorded outcome.
func readPairs(name string) (map[string]string, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	pairs := map[string]string{}
	mutant := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, soleMarker):
			return pairs, nil
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "\t"):
			f := strings.Split(line[1:], "\t")
			if mutant == "" || len(f) != 2 {
				return nil, fmt.Errorf("%s: malformed line %q", name, line)
			}
			pairs[mutant+"\t"+f[0]] = f[1]
		default:
			mutant = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s: no %q section", name, soleMarker)
}

// TestKillMatrix applies every mutant to a copy of the module, runs its
// gates, restores the files, and rewrites the matrix. It runs only with
// -update: it builds and tests the module once per mutant.
func TestKillMatrix(t *testing.T) {
	if !*update {
		t.Skip("runs every mutant; use: go test ./internal/mutants -run TestKillMatrix -update")
	}
	start := time.Now()
	var dirs []string
	for range workers {
		dir := t.TempDir()
		if err := copyModule(moduleRoot, dir); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	// Every gate must pass on the untouched copy, or a kill means nothing.
	var baseline []gate
	for _, m := range table {
		for _, g := range m.testGates() {
			if !slices.Contains(baseline, g) {
				baseline = append(baseline, g)
			}
		}
	}
	res, out := runGates(t, dirs[0], "HEAD", baseline)
	for g, got := range res {
		if got != survived {
			t.Errorf("%s at HEAD: %s; its output ends:\n%s", g, got, tail(out[g], 40))
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("baseline: %d gates pass at HEAD (%v)", len(res), time.Since(start).Round(time.Second))

	results := make([]map[string]string, len(table))
	next := make(chan int)
	var wg sync.WaitGroup
	for _, dir := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = mutate(t, dir, table[i])
			}
		}()
	}
	for i := range table {
		next <- i
	}
	close(next)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := os.MkdirAll(filepath.Dir(matrixFile), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(matrixFile, render(results), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d mutants in %v", len(table), time.Since(start).Round(time.Second))
}

// mutate applies m to the copy in dir, runs every gate of m on it and
// restores the files.
func mutate(t *testing.T, dir string, m mutant) map[string]string {
	t0 := time.Now()
	restore, err := apply(dir, m.edits)
	defer func() {
		if err := restore(); err != nil {
			t.Errorf("mutant %s: restoring: %v", m.name, err)
		}
		t.Logf("%s: %v", m.name, time.Since(t0).Round(100*time.Millisecond))
	}()
	if err != nil {
		t.Errorf("mutant %s: %v", m.name, err)
		return nil
	}
	res, _ := runGates(t, dir, m.name, m.testGates())
	return res
}

// runGates builds the copy in dir, then runs go vet and the test gates
// on it: a matrix column to its outcome and to the output of the run
// that decided it. A copy that does not build is an error in the table,
// not a kill.
func runGates(t *testing.T, dir, name string, tests []gate) (res map[string]string, out map[string][]byte) {
	if b, err := goCmd(dir, "build", "./..."); err != nil {
		t.Errorf("%s does not build: %v\n%s", name, err, b)
		return nil, nil
	}
	res, out = map[string]string{}, map[string][]byte{}
	res["vet"], out["vet"] = runVet(dir)
	runs := map[gate]goTest{}
	for _, g := range tests {
		res[g.String()], out[g.String()] = runGate(dir, g, runs)
	}
	return res, out
}

// tail returns the last n lines of out.
func tail(out []byte, n int) []byte {
	lines := bytes.SplitAfter(bytes.TrimRight(out, "\n"), []byte("\n"))
	return bytes.Join(lines[max(0, len(lines)-n):], nil)
}

// apply makes m's edits in the copy and returns what puts the files back.
func apply(dir string, edits []edit) (restore func() error, err error) {
	orig := map[string][]byte{}
	restore = func() error {
		var errs []error
		for name, b := range orig {
			errs = append(errs, os.WriteFile(name, b, 0o644))
		}
		return errors.Join(errs...)
	}
	for _, e := range edits {
		name := filepath.Join(dir, filepath.FromSlash(e.file))
		b, err := os.ReadFile(name)
		if err != nil {
			return restore, err
		}
		if _, ok := orig[name]; !ok {
			orig[name] = b
		}
		if bytes.Count(b, []byte(e.old)) != 1 {
			return restore, fmt.Errorf("%s: old text does not occur exactly once", e.file)
		}
		if err := os.WriteFile(name, bytes.Replace(b, []byte(e.old), []byte(e.new), 1), 0o644); err != nil {
			return restore, err
		}
	}
	return restore, nil
}

// copyModule copies the module at src into dst, leaving out hidden
// directories (.git, build and cache directories) and the benchmark's
// own module, which no gate builds.
func copyModule(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == "bench") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// goCmd runs a go subcommand in dir, cut off well past any gate's own
// -timeout. -trimpath keeps the copies' build actions free of their
// paths, so the copies share one build cache.
func goCmd(dir, sub string, args ...string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{sub, "-trimpath"}, args...)...)
	cmd.Dir = dir
	return cmd.CombinedOutput()
}

func runVet(dir string) (string, []byte) {
	out, err := goCmd(dir, "vet", append(strings.Fields(vetFlags), "./...")...)
	if err != nil {
		return killed, out
	}
	return survived, out
}

// goTest is the output of one go test run, and whether it passed.
type goTest struct {
	out []byte
	ok  bool
}

// runGate runs one go test gate: survived when it passes, timeout when
// it hangs past -timeout, killed otherwise. A gate with a sub reads its
// subtest's outcome off a -v run, which runs keeps for the gates that
// share it.
func runGate(dir string, g gate, runs map[gate]goTest) (string, []byte) {
	run := gate{pkg: g.pkg, run: g.run, race: g.race}
	r, ok := runs[run]
	if !ok {
		args := []string{"-v", "-timeout", gateTimeout}
		if g.race {
			args = append(args, "-race")
		}
		if g.run != "" {
			args = append(args, "-run", g.run)
		}
		out, err := goCmd(dir, "test", append(args, g.pkg)...)
		r = goTest{out, err == nil}
		runs[run] = r
	}
	switch {
	case isTimeout(r.out):
		return timedOut, r.out
	case g.sub == "" && r.ok, g.sub != "" && bytes.Contains(r.out, []byte("--- PASS: "+g.sub+" (")):
		return survived, r.out
	}
	return killed, r.out
}

func isTimeout(out []byte) bool { return bytes.Contains(out, []byte("panic: test timed out after")) }

// rejects reports whether an outcome keeps the mutant out: a hang fails
// the gate as surely as a failure does.
func rejects(outcome string) bool { return outcome != survived }

// render writes the matrix, then each gate's sole kills (the mutants no
// other gate rejects) and the survivors (the mutants no gate rejects).
func render(results []map[string]string) []byte {
	var b bytes.Buffer
	b.WriteString(`# Kill matrix: each source mutant of internal/mutants against each gate
# it runs, all under -timeout ` + gateTimeout + `. Rewrite it with
#
#	go test ./internal/mutants -run TestKillMatrix -update
#
# killed: the gate fails. timeout: it hangs (a rejection that names no
# line). survived: it passes. vet is CI's analyzer set; each test gate
# is a go test run. A -race gate sees a race only on a schedule that overlaps
# its two accesses, so its lock rows' tests are written to overlap them.
`)
	var gates []string
	sole := map[string][]string{}
	var survivors []string
	for i, m := range table {
		fmt.Fprintf(&b, "\n%s\n", m.name)
		var by []string
		for _, c := range m.columns() {
			fmt.Fprintf(&b, "\t%s\t%s\n", c, results[i][c])
			if !slices.Contains(gates, c) {
				gates = append(gates, c)
			}
			if rejects(results[i][c]) {
				by = append(by, c)
			}
		}
		switch len(by) {
		case 0:
			survivors = append(survivors, m.name)
		case 1:
			sole[by[0]] = append(sole[by[0]], m.name)
		}
	}
	sort.Strings(gates)
	fmt.Fprintf(&b, "\n%s: the mutants only this gate rejects. A gate with none\n", soleMarker)
	b.WriteString("# can go without letting any mutant of the table through.\n")
	for _, g := range gates {
		names := "-"
		if len(sole[g]) > 0 {
			names = strings.Join(sole[g], " ")
		}
		fmt.Fprintf(&b, "%s: %s\n", g, names)
	}
	b.WriteString("\n== survivors: the mutants no gate rejects (open findings)\n")
	if len(survivors) == 0 {
		b.WriteString("-\n")
	}
	for _, s := range survivors {
		b.WriteString(s + "\n")
	}
	return b.Bytes()
}
