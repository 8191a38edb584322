package testutil

import (
	"runtime"
	"testing"
	"time"
)

// GoroutineBaseline records how many goroutines run now and returns the
// check a shutdown test ends with: once the component under test is
// closed, every goroutine it started must have ended. The check waits up
// to five seconds for the count to fall back to the baseline, then fails
// t with every goroutine's stack.
func GoroutineBaseline(t testing.TB) (check func()) {
	t.Helper()
	// The previous test's goroutine may still be exiting, and counting it
	// would let one leaked goroutine pass: the baseline is the least count
	// seen over a few milliseconds.
	base := runtime.NumGoroutine()
	for range 20 {
		time.Sleep(time.Millisecond)
		base = min(base, runtime.NumGoroutine())
	}
	return func() {
		t.Helper()
		if n, ok := settle(base, 5*time.Second); !ok {
			buf := make([]byte, 1<<20)
			t.Errorf("%d goroutines still run, %d before the test:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	}
}

// settle polls until at most base goroutines run or within has passed,
// and returns the last count.
func settle(base int, within time.Duration) (n int, ok bool) {
	for deadline := time.Now().Add(within); ; time.Sleep(5 * time.Millisecond) {
		if n = runtime.NumGoroutine(); n <= base || time.Now().After(deadline) {
			return n, n <= base
		}
	}
}
