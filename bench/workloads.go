package main

import (
	"fmt"
	"strconv"
)

// This file is the only place a CLI command line is written down. When
// a front door is renamed or a flag changes, the follow-up is here.

// The four binaries the benchmark builds and drives.
var cliPackages = []string{"./cmd/ccfit-figures", "./cmd/ccfit-run", "./cmd/ccfit-serve", "./cmd/ccfit-worker"}

// cliCampaign is one front-door invocation: which cells it simulates and
// the flags that shape how. The command line is assembled by argv.
type cliCampaign struct {
	bin   string   // binary under the build's bin dir
	flags []string // execution-shape flags, before the seed
	ids   []string // experiment ids, in request order
	seeds int      // replications per scheme (1 = single seed)
	ms    float64  // truncate each cell to this many simulated ms (0 = full; ccfit-run only)
}

// argv renders the command line after the binary name. extra carries
// run-mode flags (-manifest, -csv, -server) and goes first.
func (c cliCampaign) argv(seed int64, extra ...string) []string {
	args := append([]string(nil), extra...)
	args = append(args, c.flags...)
	args = append(args, "-seed", strconv.FormatInt(seed, 10))
	if c.seeds > 1 {
		args = append(args, "-seeds", strconv.Itoa(c.seeds))
	}
	if c.ms > 0 {
		args = append(args, "-ms", strconv.FormatFloat(c.ms, 'g', -1, 64))
	}
	return append(args, c.ids...)
}

// cellRef names one (experiment, scheme, seed offset) simulation for the
// traced run; the seed is the run's seed plus off.
type cellRef struct {
	exp, scheme string
	off         int64
}

// workload is one row of the benchmark.
type workload struct {
	name string
	why  string
	// full is the measured campaign; smoke is the seconds-scale variant
	// bench_test.go drives to catch rot.
	full, smoke cliCampaign
	// service routes the campaign through a fresh ccfit-serve with two
	// ccfit-worker processes instead of running it in-process, and times
	// the same campaign locally first as the byte-identity reference.
	service bool
	// slots is how many jobs the front door runs at once (the
	// denominator of runner.pool_efficiency).
	slots int
	// nominalS is one repetition's wall time on the reference host; a run
	// makes max(1, seconds/nominalS) repetitions.
	nominalS float64
	// traced are the cells the traced run executes in-process; parCell
	// is the one also run at SimWorkers 1 and 2.
	traced, smokeTraced []cellRef
	parCell             cellRef
}

var (
	paperIDs = []string{"table1", "fig7a", "fig7b", "fig7c", "fig8b", "fig9", "fig10"}
	dcIDs    = []string{"xleafincast", "xleafshuffle"}
)

// probeCells are the 20 short finite-flow cells every traced run sends
// through the runner, campaign and dispatch layers in-process: both
// datacenter experiments x {1Q, CCFIT} x 5 consecutive seeds. They are
// also the traced cells of the two dc workloads.
func probeCells(seeds int) []cellRef {
	var out []cellRef
	for _, id := range dcIDs {
		for _, s := range []string{"1Q", "CCFIT"} {
			for k := 0; k < seeds; k++ {
				out = append(out, cellRef{id, s, int64(k)})
			}
		}
	}
	return out
}

const (
	probeSeeds      = 5
	smokeProbeSeeds = 1
	// smokeTraceMS truncates every in-process cell at smoke scale.
	smokeTraceMS = 0.1
)

// workloads is the benchmark. Every campaign keeps at most two threads
// busy (== nproc on the reference host): -workers 2, or -workers 1 with
// -sim-workers 2, or two single-slot workers. The load is a closed
// loop: the driver only spawns and waits, and a repetition starts when
// the previous one has exited.
//
// Sizes are cut to the driver's time cap (4 + 22 x 4 runs inside 3420 s
// puts a whole run, set-up included, near 35 s): paper_grid keeps
// Configs #1-#3 but only the four-tree member of Fig. 8, and the dc
// campaigns run 30 seeds (240 cells) instead of 60.
var workloads = []workload{
	{
		name: "paper_grid",
		why:  "the paper's evaluation on Configs #1-#3 (25 long CBR cells): serial engine steady state does ~all the work",
		full: cliCampaign{bin: "ccfit-figures", flags: []string{"-workers", "2"}, ids: paperIDs, seeds: 1},
		smoke: cliCampaign{bin: "ccfit-figures", flags: []string{"-workers", "2"},
			ids: []string{"fig7a"}, seeds: 1},
		slots: 2, nominalS: 20,
		traced:      []cellRef{{"fig7a", "CCFIT", 0}, {"fig7c", "ITh", 0}, {"fig8b", "CCFIT", 0}},
		smokeTraced: []cellRef{{"fig7a", "CCFIT", 0}},
		parCell:     cellRef{"fig8b", "CCFIT", 0},
	},
	{
		name: "hotspot512_par",
		why:  "x512hotspot at -sim-workers 2: the only front door where the partition, barriers and mailboxes run, on the largest fabric",
		full: cliCampaign{bin: "ccfit-run", flags: []string{"-workers", "1", "-sim-workers", "2"},
			ids: []string{"x512hotspot"}, seeds: 1},
		smoke: cliCampaign{bin: "ccfit-run", flags: []string{"-workers", "1", "-sim-workers", "2"},
			ids: []string{"x512hotspot"}, seeds: 1, ms: 0.1},
		slots: 1, nominalS: 20,
		traced:      []cellRef{{"x512hotspot", "CCFIT", 0}},
		smokeTraced: []cellRef{{"x512hotspot", "CCFIT", 0}},
		parCell:     cellRef{"x512hotspot", "CCFIT", 0},
	},
	{
		name:  "dc_cells_local",
		why:   "240 short finite-flow cells (open-loop arrivals, FCT, replication rendering): per-job runner cost, not long CBR runs",
		full:  cliCampaign{bin: "ccfit-run", flags: []string{"-workers", "2"}, ids: dcIDs, seeds: 30},
		smoke: cliCampaign{bin: "ccfit-run", flags: []string{"-workers", "2"}, ids: dcIDs, seeds: 2},
		slots: 2, nominalS: 10,
		traced:      probeCells(probeSeeds),
		smokeTraced: probeCells(smokeProbeSeeds),
		parCell:     cellRef{"xleafincast", "CCFIT", 0},
	},
	{
		name:    "dc_cells_service",
		why:     "the same 240 cells through ccfit-serve + 2 ccfit-worker on loopback: campaign journal and dispatch leases on the path",
		full:    cliCampaign{bin: "ccfit-run", ids: dcIDs, seeds: 30},
		smoke:   cliCampaign{bin: "ccfit-run", ids: dcIDs, seeds: 1},
		service: true,
		slots:   2, nominalS: 20,
		traced:      probeCells(probeSeeds),
		smokeTraced: probeCells(smokeProbeSeeds),
		parCell:     cellRef{"xleafincast", "CCFIT", 0},
	},
}

// localFlags is how the service workload's campaign runs in-process for
// the byte-identity reference (the dc_cells_local shape).
var localFlags = []string{"-workers", "2"}

// serveArgv and workerArgv launch the service fleet. The worker cache is
// off so a repetition never reuses another's results; -poll-max keeps
// an idle worker's claim backoff from dominating a short campaign.
func serveArgv(dataDir string) []string {
	return []string{"-addr", "127.0.0.1:0", "-workers", "2", "-data", dataDir}
}

func workerArgv(url string, i int) []string {
	return []string{"-server", url, "-name", fmt.Sprintf("bench-w%d", i), "-jobs", "1", "-cache", "", "-poll-max", "100ms"}
}

const (
	// fleetSize is the number of ccfit-worker processes.
	fleetSize = 2
	// serveHandshake prefixes the line ccfit-serve prints once it
	// listens; the URL follows.
	serveHandshake = "ccfit-serve: listening on "
)

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// cli picks the full or the smoke campaign of a workload.
func (w workload) cli(smoke bool) cliCampaign {
	if smoke {
		return w.smoke
	}
	return w.full
}

func (w workload) tracedCells(smoke bool) []cellRef {
	if smoke {
		return w.smokeTraced
	}
	return w.traced
}

// par is the cell run at SimWorkers 1 and 2; at smoke scale the first
// traced cell stands in.
func (w workload) par(smoke bool) cellRef {
	if smoke {
		return w.smokeTraced[0]
	}
	return w.parCell
}
