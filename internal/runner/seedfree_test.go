package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"repro/internal/experiments"
)

func jsonBytes(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seedFreeCells is the measured set of experiment/scheme cells whose
// 1 ms runs never observe their seed: the baselines that mark nothing
// under fixed-destination or scheduled traffic, and on Configs #1 and #2
// the marking schemes too, which draw no random number in their first
// millisecond. Losing one loses the seed-free table's gain on it;
// gaining one must pass the soundness check below first.
var seedFreeCells = []string{
	"fig10/1Q", "fig10/CCFIT", "fig10/FBICM", "fig10/ITh",
	"fig7a/1Q", "fig7a/CCFIT", "fig7a/FBICM", "fig7a/ITh",
	"fig7b/1Q", "fig7b/CCFIT", "fig7b/FBICM", "fig7b/ITh",
	"fig9/1Q", "fig9/CCFIT", "fig9/FBICM", "fig9/ITh",
	"x512hotspot/1Q", "x512hotspot/FBICM",
	"xfairness/1Q", "xfairness/DBBM", "xfairness/FBICM", "xfairness/OBQA", "xfairness/VOQnet", "xfairness/VOQsw",
	"xleafshuffle/1Q", "xleafshuffle/FBICM",
}

// TestSeedFreeMeansSeedIndependent is the seed-free table's soundness
// guard: wherever a run reports that it never observed its seed, the
// same cell at another seed must produce the same Result, Seed aside.
// It runs every registered runnable experiment under each of its
// schemes, truncated to 1 ms as -ms truncates, with no table.
func TestSeedFreeMeansSeedIndependent(t *testing.T) {
	var free []string
	for _, id := range experiments.ValidIDs() {
		jobs, err := FromSpec(experiments.Spec{Experiments: []string{id}, Seed: 5, MS: 1})
		if err != nil {
			continue // a static table
		}
		for _, job := range jobs {
			r, err := resolve(job)
			if err != nil {
				t.Fatal(err)
			}
			o := execute(r)
			if o.err != nil {
				t.Fatalf("%s: %v", job, o.err)
			}
			if !o.seedFree {
				continue
			}
			free = append(free, id+"/"+job.Scheme)
			r.seed = 1014
			other := execute(r)
			if other.err != nil {
				t.Fatalf("%s at seed 1014: %v", job, other.err)
			}
			other.res.Seed = o.res.Seed
			if !bytes.Equal(jsonBytes(t, o.res), jsonBytes(t, other.res)) {
				t.Errorf("%s reports seed-free, but seed 1014 renders a different result", job)
			}
		}
	}
	sort.Strings(free)
	if !reflect.DeepEqual(free, seedFreeCells) {
		t.Errorf("seed-free cells:\n got %v\nwant %v", free, seedFreeCells)
	}
}

// TestSeedFreeCellsRunOnce pins the table on the xleafshuffle cells: at
// one worker only the first seed of each seed-free scheme simulates, the
// rest read cached, and every Result equals a run on a fresh executor.
func TestSeedFreeCellsRunOnce(t *testing.T) {
	jobs, err := FromSpec(experiments.Spec{
		Experiments: []string{"xleafshuffle"}, Schemes: []string{"1Q", "FBICM", "CCFIT"},
		Seed: 1, Seeds: 4, MS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var outcomes []Outcome
	for _, jr := range mustRun(t, jobs, Options{Workers: 1}) {
		outcomes = append(outcomes, jr.Outcome())
		fresh := mustRun(t, []Job{jr.Job}, Options{Workers: 1})[0]
		if fresh.Cached || !bytes.Equal(jsonBytes(t, jr.Result), jsonBytes(t, fresh.Result)) {
			t.Errorf("%s: result differs from a fresh executor's", jr.Job)
		}
	}
	ok, cached := OutcomeOK, OutcomeCached
	want := []Outcome{
		ok, cached, cached, cached, // 1Q
		ok, cached, cached, cached, // FBICM
		ok, ok, ok, ok, // CCFIT observes its seed
	}
	if !reflect.DeepEqual(outcomes, want) {
		t.Errorf("outcomes %v, want %v", outcomes, want)
	}
}

// TestSeedFreeHitSharesNothing checks each hit is a Result of its own —
// a caller that edits one job's series reaches no later job's — and is
// stored under its own cache key.
func TestSeedFreeHitSharesNothing(t *testing.T) {
	jobs, err := FromSpec(experiments.Spec{
		Experiments: []string{"fig7a"}, Schemes: []string{"1Q"}, Seed: 1, Seeds: 3, MS: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &LocalExecutor{Cache: cache}
	var want []byte
	for i, job := range jobs {
		jr := e.Execute(context.Background(), job, nil)
		if jr.Err != nil || jr.Cached != (i > 0) {
			t.Fatalf("job %d: cached %v, err %v", i, jr.Cached, jr.Err)
		}
		if jr.Result.Seed != job.Seed {
			t.Errorf("job %d: Seed %d, want %d", i, jr.Result.Seed, job.Seed)
		}
		if !cache.Has(jr.Key) {
			t.Errorf("job %d: no cache entry under its own key", i)
		}
		jr.Result.Seed = 0
		if got := jsonBytes(t, jr.Result); want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("job %d: an earlier job's edit reached this result", i)
		}
		jr.Result.Normalized[0] = -1
	}
}

// TestSeedFreeTableUnderWorkers shares one table between four workers:
// every Result equals the serial campaign's, whichever job simulated.
func TestSeedFreeTableUnderWorkers(t *testing.T) {
	jobs, err := FromSpec(experiments.Spec{
		Experiments: []string{"fig7a"}, Schemes: []string{"1Q", "FBICM"}, Seed: 1, Seeds: 8, MS: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	serial := mustRun(t, jobs, Options{Workers: 1})
	for i, jr := range mustRun(t, jobs, Options{Workers: 4}) {
		if !bytes.Equal(jsonBytes(t, jr.Result), jsonBytes(t, serial[i].Result)) {
			t.Errorf("%s: result differs from the serial campaign's", jr.Job)
		}
	}
}
