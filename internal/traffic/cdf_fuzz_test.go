package traffic

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// cdfFile renders a CDF in the ns-2/CONGA file format ParseCDF reads.
func cdfFile(c *CDF) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# %s\n", c.Name)
	for i, s := range c.Sizes {
		fmt.Fprintf(&b, "%d %d %v\n", s, i, c.P[i])
	}
	return b.Bytes()
}

// FuzzParseCDF: ParseCDF reads files users bring (LoadCDF). It must
// never panic, and whatever it accepts is a valid CDF that survives a
// trip through its own file format unchanged. The committed corpus
// (testdata/fuzz/FuzzParseCDF) is the two shipped tables.
func FuzzParseCDF(f *testing.F) {
	f.Add([]byte("1000 0 0 # comment\n\n2000 1 1\n"))
	f.Add([]byte("1e3 0 0.5\n1e300 1 NaN\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseCDF("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := c.validate(); err != nil {
			t.Fatalf("accepted an invalid CDF: %v", err)
		}
		again, err := ParseCDF("fuzz", bytes.NewReader(cdfFile(c)))
		if err != nil {
			t.Fatalf("re-parse of an accepted CDF: %v\n%s", err, cdfFile(c))
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("CDF changed across its file format:\n%+v\n%+v", c, again)
		}
	})
}

// TestCDFSeedCorpus keeps the committed corpus equal to the shipped
// tables (corpus files are `[]byte(%q)` under a version line).
func TestCDFSeedCorpus(t *testing.T) {
	for _, c := range []*CDF{WebSearchCDF(), DataMiningCDF()} {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", cdfFile(c))
		got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseCDF", c.Name))
		if err != nil || string(got) != want {
			t.Errorf("corpus entry for %s is stale (%v); want:\n%s", c.Name, err, want)
		}
	}
}
