// Package suppressed exercises the //lint:ignore machinery end to
// end: valid directives (above, trailing, file-wide) must silence the
// findings they cover, and malformed directives must both fail to
// silence anything and surface as lint-directive findings themselves.
// The expected diagnostics for this file are hard-coded in
// golden_test.go because a want-comment cannot share a line with the
// directive under test.
package suppressed

import (
	"os"
	"sync"
)

//lint:file-ignore guarded-field fixture demonstrates file-wide suppression

// Above is silenced by a directive on the preceding line.
func Above(path string) {
	//lint:ignore unchecked-err fixture: best-effort cleanup
	os.Remove(path)
}

// Trailing is silenced by a directive on the offending line itself.
func Trailing(path string) {
	os.Remove(path) //lint:ignore unchecked-err fixture: trailing form
}

// NoReason carries a directive with no justification: the directive is
// reported and the violation below still fires.
func NoReason(path string) {
	//lint:ignore unchecked-err
	os.Remove(path)
}

// UnknownRule misspells the rule id: same outcome.
func UnknownRule(path string) {
	//lint:ignore unchecked-eror typo in the rule id
	os.Remove(path)
}

// Counter's n is read without its lock; the file-wide directive covers
// it.
type Counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Peek reads n unlocked.
func (c *Counter) Peek() int { return c.n }
