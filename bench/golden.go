package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Correctness reference. The paper publishes plots, not data, so there
// is no numeric error against the paper to report: the reference is the
// repo's own pinned output. Rendered stdout is a pure function of the
// campaign's cells and the seed (never of worker counts or of the
// service path), so one sha256 per (cells, seed) pins all of it.

const goldenFile = "golden/digests.txt"

// key names a campaign by its cells, so dc_cells_local and
// dc_cells_service share one pin.
func (c cliCampaign) key() string {
	k := strings.Join(c.ids, "+")
	if c.seeds > 1 {
		k += fmt.Sprintf("/seeds=%d", c.seeds)
	}
	if c.ms > 0 {
		k += fmt.Sprintf("/ms=%g", c.ms)
	}
	return k
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// golden maps "<campaign key> seed=<n>" to a stdout digest.
type golden struct {
	path string
	pins map[string]string
}

func pinName(c cliCampaign, seed int64) string { return fmt.Sprintf("%s seed=%d", c.key(), seed) }

func loadGolden(benchDir string) (*golden, error) {
	g := &golden{path: filepath.Join(benchDir, goldenFile), pins: map[string]string{}}
	f, err := os.Open(g.path)
	if errors.Is(err, fs.ErrNotExist) {
		return g, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sum, name, ok := strings.Cut(line, "  ")
		if !ok || len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("%s: malformed line %q", g.path, line)
		}
		g.pins[name] = sum
	}
	return g, sc.Err()
}

func (g *golden) lookup(c cliCampaign, seed int64) (string, bool) {
	sum, ok := g.pins[pinName(c, seed)]
	return sum, ok
}

// pin records a digest and rewrites the file, sorted.
func (g *golden) pin(c cliCampaign, seed int64, sum string) error {
	g.pins[pinName(c, seed)] = sum
	names := make([]string, 0, len(g.pins))
	for n := range g.pins {
		names = append(names, n)
	}
	sort.Strings(names)
	var b bytes.Buffer
	b.WriteString("# sha256 of rendered stdout per (campaign cells, seed); regenerate only with -update-golden\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%s  %s\n", g.pins[n], n)
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(g.path, b.Bytes(), 0o644)
}

// figuresReference returns what `ccfit-figures -seed 1 <ids>` must print
// according to results/figures.txt, the repo's committed rendering of
// the whole evaluation: the blocks of the requested experiments, in
// file order. A block starts at its title line ("Table I." / "Fig. 7a:")
// and runs to the next title.
func figuresReference(root string, ids []string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(root, "results", "figures.txt"))
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, id := range ids {
		want[blockTitle(id)] = true
	}
	var out bytes.Buffer
	keep := false
	seen := 0
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if isBlockTitle(line) {
			keep = false
			for t := range want {
				if bytes.HasPrefix(line, []byte(t)) {
					keep = true
					seen++
				}
			}
		}
		if keep {
			out.Write(line)
		}
	}
	if seen != len(want) {
		return nil, fmt.Errorf("results/figures.txt holds %d of the %d requested blocks", seen, len(want))
	}
	return out.Bytes(), nil
}

// blockTitle maps an experiment id to the prefix of its title line:
// table1 -> "Table I.", fig7a -> "Fig. 7a:", fig10 -> "Fig. 10:".
func blockTitle(id string) string {
	if id == "table1" {
		return "Table I."
	}
	return "Fig. " + strings.TrimPrefix(id, "fig") + ":"
}

func isBlockTitle(line []byte) bool {
	return bytes.HasPrefix(line, []byte("Table I.")) || bytes.HasPrefix(line, []byte("Fig. "))
}
