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

// syncFile is what writeDurable needs of an *os.File.
type syncFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

// disk opens writeDurable's files: a temp file in dir named after
// pattern, or with no pattern dir itself. osDisk is the file system; a
// test gives a Scheduler a disk whose fsync fails.
type disk func(dir, pattern string) (syncFile, error)

func osDisk(dir, pattern string) (syncFile, error) {
	if pattern == "" {
		return os.Open(dir)
	}
	return os.CreateTemp(dir, pattern)
}

// writeSpec stores an accepted submission; it never replaces a spec.
func (d disk) writeSpec(dir string, sf specFile) error {
	name := sf.ID + ".spec.json"
	if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
		return fmt.Errorf("campaign: spec %s already exists", name)
	}
	data, err := json.Marshal(sf)
	if err == nil {
		err = d.writeDurable(dir, name, data)
	}
	if err != nil {
		return fmt.Errorf("campaign: writing spec: %w", err)
	}
	return nil
}

// writeDurable writes dir/name so that it survives a crash once the call
// returns: temp file, fsync, rename, directory fsync. A crash midway
// leaves at most a stray name.tmp-* file, which nothing reads.
func (d disk) writeDurable(dir, name string, data []byte) error {
	tmp, err := d(dir, name+".tmp-*")
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
	df, err := d(dir, "")
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}
