// Package errviol seeds unchecked-error violations for the golden
// tests, next to each documented exemption.
package errviol

import (
	"bytes"
	"fmt"
	"os"
	"strings"
)

// RemoveArtifact drops os.Remove's error on the floor.
func RemoveArtifact(path string) {
	os.Remove(path) // want unchecked-err "error-returning Remove discarded"
}

// CloseNow drops a Close error that can report lost writes.
func CloseNow(f *os.File) {
	f.Close() // want unchecked-err "error-returning Close discarded"
}

// flush stands for any error-returning function of the package.
func flush() error { return nil }

// DropLocal drops the errors of a same-package function and of a
// function value, which the message can only call "call".
func DropLocal(sync func() error) {
	flush() // want unchecked-err "error-returning flush discarded"
	sync()  // want unchecked-err "error-returning call discarded"
}

// Exempt demonstrates every accepted form: deferred cleanup, the
// never-fails strings.Builder and bytes.Buffer sinks, formatted report
// emission, and an explicit blank assignment.
func Exempt(f *os.File, path string) (string, error) {
	defer f.Close()
	var b strings.Builder
	b.WriteString(path)
	var buf bytes.Buffer
	buf.WriteString(path)
	fmt.Fprintln(&buf, path)
	if err := f.Sync(); err != nil {
		return "", err
	}
	_ = os.Remove(path)
	return b.String(), nil
}
