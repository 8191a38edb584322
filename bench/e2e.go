package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// session is one invocation of the benchmark: where the repo is, where
// scratch files go, and the CLIs it has built.
type session struct {
	root     string // repo root: the CLIs are built from here
	benchDir string // this package's directory (golden pins live here)
	work     string // scratch root; everything the benchmark writes is under it
	smoke    bool
	update   bool // -update-golden
	gold     *golden

	binDir string
	buildS []float64 // timed go build runs of this session
}

// tmp makes a fresh directory under the session's scratch root.
func (s *session) tmp(pattern string) (string, error) {
	base := filepath.Join(s.work, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// ensureBuilt builds the four CLIs k times, each into a fresh directory
// and each timed, keeping the last. The first build of a checkout
// compiles everything; later ones only link, and the median over k is
// what set-up costs a user whose build cache is warm.
func (s *session) ensureBuilt(ctx context.Context, k int) error {
	for len(s.buildS) < k {
		t0 := time.Now()
		dir, err := s.tmp("bin-*")
		if err != nil {
			return err
		}
		args := append([]string{"build", "-o", dir + string(filepath.Separator)}, cliPackages...)
		cmd := exec.CommandContext(ctx, "go", args...)
		cmd.Dir = s.root
		if out, err := cmd.CombinedOutput(); err != nil {
			_ = os.RemoveAll(dir) // best effort: the build error is what matters
			return fmt.Errorf("go build of the CLIs in %s: %w\n%s", s.root, err, tail(out, 4096))
		}
		s.buildS = append(s.buildS, time.Since(t0).Seconds())
		if s.binDir != "" {
			if err := os.RemoveAll(s.binDir); err != nil {
				return err
			}
		}
		s.binDir = dir
	}
	return nil
}

// close removes what the session left in its scratch root.
func (s *session) close() error {
	if s.binDir == "" {
		return nil
	}
	dir := s.binDir
	s.binDir = ""
	return os.RemoveAll(dir)
}

func (s *session) bin(name string) string { return filepath.Join(s.binDir, name) }

// prepS measures, k times, what a repetition needs beyond the binaries:
// its temp dir and, for the service workload, the fleet launched and
// healthy. Each launched fleet is stopped and reaped before the next.
func (s *session) prepS(ctx context.Context, w workload, k int) ([]float64, error) {
	var out []float64
	for i := 0; i < k; i++ {
		t0 := time.Now()
		dir, err := s.tmp("prep-*")
		if err != nil {
			return nil, err
		}
		var f *fleet
		if w.service {
			f, err = launchFleet(ctx, s.binDir, filepath.Join(dir, "fleet"))
		}
		out = append(out, time.Since(t0).Seconds())
		if f != nil {
			f.stop()
		}
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// repOut is one repetition of a workload through its front door.
type repOut struct {
	wall      time.Duration // child start -> exit of the timed command
	localWall time.Duration // service workload: the in-process reference run
	use       usage         // every child in the timed region
	stdout    []byte
	exitErr   error     // non-nil when a command exited non-zero
	badCells  int       // cells whose manifest status is not ok (-1 = no manifest)
	jobMS     []float64 // per-job elapsed, where the front door reports it
	svc       map[string]float64
}

// manifest is the part of runner.Manifest the benchmark reads.
type manifest struct {
	Runs []struct {
		Status    string  `json:"status"`
		ElapsedMS float64 `json:"elapsed_ms"`
	} `json:"runs"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

func (m *manifest) bad() int {
	n := 0
	for _, r := range m.Runs {
		if r.Status != "ok" && r.Status != "cached" {
			n++
		}
	}
	return n
}

func (m *manifest) jobMS() []float64 {
	out := make([]float64, len(m.Runs))
	for i, r := range m.Runs {
		out[i] = r.ElapsedMS
	}
	return out
}

// manifestArgs makes the front door write a run manifest under dir and
// returns where. ccfit-run takes -manifest; ccfit-figures only writes
// one next to its CSVs, so it is asked for those only when observe is
// set (the traced run), keeping the timed command the plain one.
func manifestArgs(c cliCampaign, dir string, observe bool) (args []string, path string) {
	switch {
	case c.bin == "ccfit-run":
		path = filepath.Join(dir, "manifest.json")
		return []string{"-manifest", path}, path
	case observe:
		csv := filepath.Join(dir, "csv")
		return []string{"-csv", csv}, filepath.Join(csv, "manifest.json")
	}
	return nil, ""
}

// rep runs one repetition in a fresh temp dir, removed afterwards: no
// result cache or journal survives into the next.
func (s *session) rep(ctx context.Context, w workload, seed int64, observe bool) (out repOut, err error) {
	dir, err := s.tmp("rep-*")
	if err != nil {
		return out, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	if w.service {
		return s.serviceRep(ctx, w, seed, dir)
	}
	c := w.cli(s.smoke)
	margs, mpath := manifestArgs(c, dir, observe)
	stdout, _, wall, u, runErr := runCLI(ctx, dir, s.bin(c.bin), c.argv(seed, margs...)...)
	if ctx.Err() != nil {
		return out, ctx.Err()
	}
	out = repOut{wall: wall, use: u, stdout: stdout, exitErr: runErr, badCells: -1}
	if mpath != "" {
		if m, merr := readManifest(mpath); merr == nil {
			out.badCells, out.jobMS = m.bad(), m.jobMS()
		} else if runErr == nil {
			return out, merr
		}
	}
	return out, nil
}

// serviceRep runs the campaign in-process first (the byte-identity
// reference, and the local half of campaign.overhead_ms_per_job), then
// through a fresh fleet. Only the second is the timed region.
func (s *session) serviceRep(ctx context.Context, w workload, seed int64, dir string) (repOut, error) {
	c := w.cli(s.smoke)
	local := c
	local.flags = localFlags
	ref, _, localWall, _, refErr := runCLI(ctx, dir, s.bin(c.bin), local.argv(seed)...)
	if ctx.Err() != nil {
		return repOut{}, ctx.Err()
	}
	if refErr != nil {
		return repOut{exitErr: refErr, badCells: -1}, nil
	}

	f, err := launchFleet(ctx, s.binDir, filepath.Join(dir, "fleet"))
	if err != nil {
		return repOut{}, err
	}
	defer f.stop()
	mpath := filepath.Join(dir, "manifest.json")
	stdout, _, wall, u, runErr := runCLI(ctx, dir, s.bin(c.bin), c.argv(seed, "-server", f.url, "-manifest", mpath)...)
	if ctx.Err() != nil {
		return repOut{}, ctx.Err()
	}
	out := repOut{wall: wall, localWall: localWall, stdout: stdout, exitErr: runErr, badCells: -1}
	if runErr == nil {
		m, err := readManifest(mpath)
		if err != nil {
			return out, err
		}
		out.badCells = m.bad()
		if out.svc, err = serviceMetrics(ctx, f.url); err != nil {
			return out, err
		}
		if out.jobMS, err = serviceJobMS(ctx, f.url); err != nil {
			return out, err
		}
		if !bytes.Equal(stdout, ref) {
			out.exitErr = fmt.Errorf("service stdout (%d bytes) differs from the local run's (%d bytes)", len(stdout), len(ref))
		}
	}
	u.add(f.stop())
	out.use = u
	return out, nil
}

// serviceMetrics reads the numeric counters of GET /metrics.
func serviceMetrics(ctx context.Context, url string) (map[string]float64, error) {
	var raw map[string]any
	if err := httpJSON(ctx, url+"/metrics", &raw); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// serviceJobMS reads the per-job elapsed times of the service's (only)
// campaign from GET /campaigns/{id}.
func serviceJobMS(ctx context.Context, url string) ([]float64, error) {
	var list []struct {
		ID string `json:"id"`
	}
	if err := httpJSON(ctx, url+"/campaigns", &list); err != nil {
		return nil, err
	}
	if len(list) != 1 {
		return nil, fmt.Errorf("service lists %d campaigns, want 1", len(list))
	}
	var view struct {
		Jobs []struct {
			ElapsedMS float64 `json:"elapsed_ms"`
		} `json:"jobs"`
	}
	if err := httpJSON(ctx, url+"/campaigns/"+list[0].ID, &view); err != nil {
		return nil, err
	}
	out := make([]float64, len(view.Jobs))
	for i, j := range view.Jobs {
		out[i] = j.ElapsedMS
	}
	return out, nil
}

// verdict is how a repetition's stdout compares to the pinned output.
type verdict struct {
	ok     bool
	golden string // "match", "pinned", "unpinned" or "MISMATCH"
	notes  []string
}

// check compares a repetition's stdout with the reference: the pinned
// digest for (cells, seed) where there is one, and results/figures.txt
// for the paper grid at seed 1. With -update-golden the digest is
// (re)pinned instead — refused when figures.txt disagrees.
func (s *session) check(w workload, seed int64, stdout []byte) (verdict, error) {
	c := w.cli(s.smoke)
	v := verdict{ok: true}
	if c.bin == "ccfit-figures" && seed == 1 && !s.smoke {
		want, err := figuresReference(s.root, c.ids)
		if err != nil {
			return v, err
		}
		if !bytes.Equal(stdout, want) {
			v.ok, v.golden = false, "MISMATCH"
			v.notes = append(v.notes, "stdout differs from the matching blocks of results/figures.txt")
			return v, nil
		}
		v.notes = append(v.notes, "stdout equals results/figures.txt (requested blocks)")
	}
	sum := digest(stdout)
	if s.update {
		v.golden = "pinned"
		return v, s.gold.pin(c, seed, sum)
	}
	want, pinned := s.gold.lookup(c, seed)
	switch {
	case !pinned:
		v.golden = "unpinned"
	case want == sum:
		v.golden = "match"
	default:
		v.ok, v.golden = false, "MISMATCH"
		v.notes = append(v.notes, fmt.Sprintf("stdout sha256 %s, pinned %s", sum, want))
	}
	return v, nil
}
