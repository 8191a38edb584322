package campaign

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// syncFails is a file whose fsync fails, as a disk that cannot flush
// does.
type syncFails struct{ *os.File }

func (syncFails) Sync() error { return errors.New("fsync: input/output error") }

// failingSync is a disk on which fsync fails: of the temp file when
// temp is set, else of the directory.
func failingSync(temp bool) disk {
	return func(dir, pattern string) (syncFile, error) {
		f, err := osDisk(dir, pattern)
		if err != nil || (pattern != "") != temp {
			return f, err
		}
		return syncFails{f.(*os.File)}, nil
	}
}

// names lists dir's entries.
func names(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	return out
}

// TestWriteDurableSyncFails: a file whose fsync fails is an error, and
// neither it nor its temp file is left in the directory.
func TestWriteDurableSyncFails(t *testing.T) {
	dir := t.TempDir()
	if err := failingSync(true).writeDurable(dir, "c000000.spec.json", []byte("{}")); err == nil {
		t.Fatal("writeDurable returned nil after the file's fsync failed")
	}
	if got := names(t, dir); len(got) != 0 {
		t.Fatalf("a failed write left %v", got)
	}
}

// TestWriteDurableDirSyncFails: a file whose directory entry the disk
// did not flush is not durable, so the write is an error.
func TestWriteDurableDirSyncFails(t *testing.T) {
	dir := t.TempDir()
	if err := failingSync(false).writeDurable(dir, "c000000.spec.json", []byte("{}")); err == nil {
		t.Fatal("writeDurable returned nil after the directory's fsync failed")
	}
}

// TestCancelMarkFails: a cancel whose mark the disk refuses is an
// error, and the campaign goes on uncancelled; with the disk back the
// cancel goes through.
func TestCancelMarkFails(t *testing.T) {
	dir := t.TempDir()
	exec := &blockingExecutor{started: make(chan string, 1)}
	s := openScheduler(t, dir, Options{Workers: 1, Executor: exec})
	defer s.Close()
	v, err := s.Submit(Submission{Spec: quickSpec()})
	if err != nil {
		t.Fatal(err)
	}
	s.disk = failingSync(true)
	if _, err := s.Cancel(v.ID); err == nil {
		t.Fatal("Cancel returned nil after the cancel mark's fsync failed")
	}
	got, err := s.View(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status == StatusCancelled || got.Cancelled != 0 {
		t.Fatalf("after a failed cancel: status %s, %d jobs cancelled; want neither", got.Status, got.Cancelled)
	}
	specs := filepath.Join(dir, "campaigns")
	if slices.Contains(names(t, specs), v.ID+".cancel") {
		t.Fatal("a cancel mark is on disk after its write failed")
	}
	s.disk = osDisk
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatalf("Cancel with the disk back: %v", err)
	}
	if !slices.Contains(names(t, specs), v.ID+".cancel") {
		t.Fatal("no cancel mark on disk after a cancel went through")
	}
}
