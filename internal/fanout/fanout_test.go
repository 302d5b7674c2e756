package fanout

import (
	"sync/atomic"
	"testing"
)

func TestGroupRunsEveryStripeOnce(t *testing.T) {
	var g Group
	for _, n := range []int{0, 1, 2, 5, 3} { // shrinking reuses a prefix of the start functions
		hits := make([]atomic.Int32, 8)
		g.Run(n, func(w int) { hits[w].Add(1) })
		for w := range hits {
			want := int32(0)
			if w < n {
				want = 1
			}
			if got := hits[w].Load(); got != want {
				t.Errorf("n=%d: stripe %d ran %d times, want %d", n, w, got, want)
			}
		}
	}
}

func TestGroupSteadyStateAllocs(t *testing.T) {
	var g Group
	var sum atomic.Int64
	task := func(w int) { sum.Add(int64(w)) }
	g.Run(4, task)
	if a := testing.AllocsPerRun(100, func() { g.Run(4, task) }); a != 0 {
		t.Errorf("Run allocates %.1f objects per call once its helpers exist, want 0", a)
	}
}
