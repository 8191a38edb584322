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
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lint"
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

// rules names TestModuleSelfClean's rules, one matrix column each.
func rules() []string {
	var names []string
	for _, a := range lint.All() {
		names = append(names, a.Name)
	}
	return names
}

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
	for _, r := range rules() {
		cols = append(cols, "lint:"+r)
	}
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
	res := runGates(t, dirs[0], "HEAD", baseline)
	for g, got := range res {
		if got != survived {
			t.Errorf("%s at HEAD: %s", g, got)
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
	return runGates(t, dir, m.name, m.testGates())
}

// runGates builds the copy in dir, then runs go vet, the lint
// self-gate and the test gates on it: a matrix column to its outcome.
// A copy that does not build is an error in the table, not a kill.
func runGates(t *testing.T, dir, name string, tests []gate) map[string]string {
	if out, err := goCmd(dir, "build", "./..."); err != nil {
		t.Errorf("%s does not build: %v\n%s", name, err, out)
		return nil
	}
	// go vet and the lint self-gate run beside the tests: each of the
	// three is mostly one process on one core.
	res := map[string]string{}
	var static map[string]string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		static = runLint(t, dir)
		static["vet"] = runVet(dir)
	}()
	runs := map[gate]goTest{}
	for _, g := range tests {
		res[g.String()] = runGate(dir, g, runs)
	}
	wg.Wait()
	for r, got := range static {
		if r != "vet" {
			r = "lint:" + r
		}
		res[r] = got
	}
	return res
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

// goroot is the toolchain's, which a -trimpath test binary does not
// know: the lint self-gate type-checks against the standard library's
// source there.
var goroot = sync.OnceValues(func() ([]byte, error) {
	return exec.Command("go", "env", "GOROOT").Output()
})

// goCmd runs a go subcommand in dir, cut off well past any gate's own
// -timeout. -trimpath keeps the copies' build actions free of their
// paths, so the copies share one build cache.
func goCmd(dir, sub string, args ...string) ([]byte, error) {
	root, err := goroot()
	if err != nil {
		return nil, fmt.Errorf("go env GOROOT: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{sub, "-trimpath"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOROOT="+strings.TrimSpace(string(root)))
	return cmd.CombinedOutput()
}

func runVet(dir string) string {
	if _, err := goCmd(dir, "vet", append(strings.Fields(vetFlags), "./...")...); err != nil {
		return killed
	}
	return survived
}

// ruleTag finds the rule of each TestModuleSelfClean finding.
var ruleTag = regexp.MustCompile(`module must lint clean, found: \S+ \[([a-z-]+)\]`)

// runLint runs the lint self-gate and reads each rule's verdict off the
// [rule] tags of its findings.
func runLint(t *testing.T, dir string) map[string]string {
	out, err := goCmd(dir, "test", "-count=1", "-timeout", gateTimeout, "-run", "^TestModuleSelfClean$", "./internal/lint/")
	res := map[string]string{}
	for _, r := range rules() {
		res[r] = survived
	}
	if isTimeout(out) {
		for r := range res {
			res[r] = timedOut
		}
		return res
	}
	found := false
	for _, m := range ruleTag.FindAllSubmatch(out, -1) {
		r := string(m[1])
		if _, ok := res[r]; !ok {
			t.Errorf("lint reports a rule the matrix has no column for: %s", r)
		}
		res[r] = killed
		found = true
	}
	if err != nil && !found {
		t.Errorf("lint self-gate failed with no [rule] finding: %v\n%s", err, out)
	}
	return res
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
func runGate(dir string, g gate, runs map[gate]goTest) string {
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
		return timedOut
	case g.sub == "" && r.ok, g.sub != "" && bytes.Contains(r.out, []byte("--- PASS: "+g.sub+" (")):
		return survived
	}
	return killed
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
# line). survived: it passes. vet is CI's analyzer set; each lint: column
# is one rule of TestModuleSelfClean; each test gate is a go test run.
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
