// Command bench is the repo's benchmark: one command that builds the
// CLIs, drives four named workloads through the user-facing front doors
// (ccfit-figures, ccfit-run, ccfit-serve + ccfit-worker as child
// processes), checks every output against a pinned digest, and prints
// every metric by name with its unit. A traced run (-trace 1) adds an
// in-process pass with spans around each layer's public functions and
// yields the per-layer numbers. See README.md and ../BENCHMARK.json.
//
// Usage:
//
//	bench/run.sh --workload paper_grid --seed 1 --seconds 20 --trace 0
//	bench/run.sh -reps 3 -trace 1 -out head.json      # every workload
//	bench/run.sh compare base.json head.json
//
// The last line of standard output of a single run is its result as one
// JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "", "comma-separated workloads to run (default: all of "+strings.Join(workloadNames(), ",")+")")
		seed     = fs.Int64("seed", 1, "workload seed, passed to the CLIs as -seed")
		seconds  = fs.Float64("seconds", 20, "measuring time per run: a run makes max(1, seconds/nominal) repetitions")
		trace    = fs.Int("trace", 0, "0: untraced runs (end-to-end metrics); 1: traced runs (per-layer metrics)")
		reps     = fs.Int("reps", 1, "runs per workload")
		outPath  = fs.String("out", "", "append every run to this JSON result file (input of `compare`)")
		traceOut = fs.String("trace-out", "", "write the traced run's spans here (default <work>/trace/<workload>.seed<N>.json)")
		update   = fs.Bool("update-golden", false, "pin the digests of this run's outputs in golden/ instead of checking them")
		smoke    = fs.Bool("smoke", false, "seconds-scale variant of every workload (rot check, not a measurement)")
		root     = fs.String("root", "", "repo root to build the CLIs from (default: the module above this package)")
		work     = fs.String("work", "", "scratch directory (default <root>/.bench_build)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	var selected []workload
	for _, n := range strings.Split(*names, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		w, ok := workloadByName(n)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", n, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = append(selected, w)
	}
	if len(selected) == 0 {
		selected = workloads
	}
	if *trace != 0 && *trace != 1 || *reps < 1 || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -trace is 0 or 1, -reps at least 1, -seconds positive")
		return 2
	}

	s, err := newSession(*root, *work, *smoke, *update)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printHeader(stdout, s)
	var results []*runResult
	code := 0
	for _, w := range selected {
		for i := 0; i < *reps && code == 0; i++ {
			var res *runResult
			if *trace == 1 {
				res, err = s.runTraced(ctx, w, *seed, *traceOut)
			} else {
				res, err = s.runTimed(ctx, w, *seed, *seconds)
			}
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
				code = 1
				break
			}
			results = append(results, res)
			printRun(stdout, res)
		}
	}
	if cerr := s.close(); cerr != nil && code == 0 {
		fmt.Fprintln(stderr, "bench:", cerr)
		code = 1
	}
	if code == 0 && *outPath != "" {
		if err := appendResults(*outPath, s, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			code = 1
		}
	}
	if code != 0 {
		return code
	}
	// The driver reads the last line of a single run; with several runs
	// each was already printed, and the last one closes the output.
	printResultLine(stdout, results[len(results)-1])
	return 0
}

// newSession locates the repo and the scratch root.
func newSession(root, work string, smoke, update bool) (*session, error) {
	benchDir, err := findBenchDir()
	if err != nil {
		return nil, err
	}
	if root == "" {
		root = filepath.Dir(benchDir)
	}
	if root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return nil, fmt.Errorf("no go.mod in repo root %s: %w", root, err)
	}
	if work == "" {
		work = filepath.Join(root, ".bench_build")
	}
	if work, err = filepath.Abs(work); err != nil {
		return nil, err
	}
	gold, err := loadGolden(benchDir)
	if err != nil {
		return nil, err
	}
	return &session{root: root, benchDir: benchDir, work: work, smoke: smoke, update: update, gold: gold}, nil
}

// findBenchDir finds this package's directory: the working directory
// when the benchmark is run from inside it (go run ., go test), its
// bench/ child when run from the repo root (run.sh).
func findBenchDir() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Join(wd, "bench")} {
		if _, err := os.Stat(filepath.Join(dir, "workloads.go")); err == nil {
			return dir, nil
		}
	}
	return "", errors.New("run the benchmark from the repo root (bench/run.sh) or from bench/")
}

func printHeader(w io.Writer, s *session) {
	scale := "full"
	if s.smoke {
		scale = "smoke (not a measurement)"
	}
	fmt.Fprintf(w, "# ccfit bench: scale=%s host=%d cores %s/%s %s GOMAXPROCS=%d\n",
		scale, runtime.NumCPU(), runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "# load: closed loop, one campaign at a time, at most 2 busy threads per campaign; host time unless named model.*")
	fmt.Fprintln(w, "# service workloads cross the loopback interface only: no real link is measured")
	fmt.Fprintln(w, "# accuracy: the paper publishes plots, not data, so no error against the paper is given; the reference is")
	fmt.Fprintln(w, "#   the repo's pinned output and the internal/oracle gates - the model is numerically unvalidated against hardware")
}

// printRun prints one run: every metric by name with its unit.
func printRun(w io.Writer, r *runResult) {
	fmt.Fprintf(w, "== %s seed=%d trace=%d reps=%d attempted=%d failed=%d failed_share=%g golden=%s correct=%v\n",
		r.Workload, r.Seed, r.Trace, r.Reps, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Golden, r.Correct)
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-18s %-34s %14.6g %-9s", r.Workload, d.Name, v.Value, v.Unit)
		switch {
		case v.Pct > 0:
			line += fmt.Sprintf(" p%g of %d samples", v.Pct, v.N)
		case v.N > 0 && (v.Min != 0 || v.Max != 0):
			line += fmt.Sprintf(" median of %d (min %.6g, max %.6g)", v.N, v.Min, v.Max)
		case v.N > 0:
			line += fmt.Sprintf(" median of %d", v.N)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// printResultLine prints the driver's contract line: exactly correct,
// attempted, failed and metrics, each metric exactly value and unit.
func printResultLine(w io.Writer, r *runResult) {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]vu{}}
	for k, v := range r.Metrics {
		line.Metrics[k] = vu{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		panic(err) // finite floats and strings always encode
	}
	fmt.Fprintln(w, string(data))
}

// resultFile is the input of `compare`: every run of one or more
// invocations against one commit.
type resultFile struct {
	Host struct {
		Cores      int    `json:"cores"`
		GOMAXPROCS int    `json:"gomaxprocs"`
		Go         string `json:"go"`
		OSArch     string `json:"os_arch"`
	} `json:"host"`
	Root string       `json:"root"`
	Runs []*runResult `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendResults adds runs to the result file at path, creating it when
// missing, so alternating invocations (ab.sh) accumulate into one file
// per side.
func appendResults(path string, s *session, runs []*runResult) error {
	f, err := loadResults(path)
	if errors.Is(err, os.ErrNotExist) {
		f, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Host.Cores, f.Host.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	f.Host.Go, f.Host.OSArch = runtime.Version(), runtime.GOOS+"/"+runtime.GOARCH
	f.Root = s.root
	f.Runs = append(f.Runs, runs...)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
