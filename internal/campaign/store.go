package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// A campaign on disk is two files in Options.Dir: <id>.spec.json, the
// submission as accepted, and once cancelled an empty <id>.cancel, each
// on disk before Submit or Cancel returns. Everything else a restart
// needs is in the result cache.

// specFile is the content of <id>.spec.json.
type specFile struct {
	ID  string     `json:"id"`
	At  time.Time  `json:"at"`
	Sub Submission `json:"sub"`
}

// writeSpec stores an accepted submission; it never replaces a spec.
func writeSpec(dir string, sf specFile) error {
	name := sf.ID + ".spec.json"
	if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
		return fmt.Errorf("campaign: spec %s already exists", name)
	}
	data, err := json.Marshal(sf)
	if err == nil {
		err = writeDurable(dir, name, data)
	}
	if err != nil {
		return fmt.Errorf("campaign: writing spec: %w", err)
	}
	return nil
}

// writeDurable writes dir/name so that it survives a crash once the call
// returns: temp file, fsync, rename, directory fsync. A crash midway
// leaves at most a stray name.tmp-* file, which nothing reads.
func writeDurable(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
