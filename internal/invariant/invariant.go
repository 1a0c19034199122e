// Package invariant holds the resource-balance checks shared by the
// repo's tests. It is imported only from _test files.
package invariant

import (
	"runtime"
	"testing"
	"time"
)

// NoLeak records the current goroutine count and, when the test (and
// every cleanup registered after this call) has finished, fails it
// unless the count settles back to that baseline within five seconds.
// Call it first in the test, before anything that starts goroutines.
func NoLeak(t testing.TB) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("goroutines leaked: %d running, started with %d", n, base)
		}
	})
}
