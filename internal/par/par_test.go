package par

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestDo: every index runs exactly once; with failures, the error is the
// lowest failing index's — what a serial loop would have returned — and
// every index below it has run.
func TestDo(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 1000} {
		ran := make([]atomic.Int32, n)
		if err := Do(n, func(i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, got)
			}
		}
	}
	for round := 0; round < 50; round++ {
		const n, lowest = 500, 137
		ran := make([]atomic.Int32, n)
		err := Do(n, func(i int) error {
			ran[i].Add(1)
			if i == lowest || i%97 == 3 && i > lowest {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != fmt.Sprintf("index %d", lowest) {
			t.Fatalf("Do = %v, want the error of index %d", err, lowest)
		}
		for i := 0; i < lowest; i++ {
			if ran[i].Load() != 1 {
				t.Fatalf("index %d below the failing one did not run", i)
			}
		}
	}
}
