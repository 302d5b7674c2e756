package metrics

import (
	"sync"
	"testing"
	"time"
)

// total is the histogram's observation count: the sum of its counts.
func total(h *SizeHistogram) uint64 {
	var n uint64
	for _, c := range h.Counts() {
		n += c
	}
	return n
}

// count is the number of observations currently in the reservoir's window.
func count(r *Reservoir) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.ring)
	}
	return r.next
}

func TestSizeHistogram(t *testing.T) {
	h := NewSizeHistogram(8)
	for _, n := range []int{1, 2, 2, 8, 0, 99} { // 0 clamps to 1, 99 clamps to 8
		h.Observe(n)
	}
	counts := h.Counts()
	if counts[0] != 2 || counts[1] != 2 || counts[7] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if got := total(h); got != 6 {
		t.Errorf("Total = %d", got)
	}
	if got, want := h.Mean(), (1+1+2+2+8+8)/6.0; got != want {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

func TestSizeHistogramConcurrent(t *testing.T) {
	h := NewSizeHistogram(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(1 + (w+i)%4)
			}
		}(w)
	}
	wg.Wait()
	if got := total(h); got != 8000 {
		t.Errorf("Total = %d, want 8000", got)
	}
}

func TestReservoirQuantiles(t *testing.T) {
	r := NewReservoir(100)
	if got := r.Quantiles(0.5)[0]; got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	for i := 1; i <= 100; i++ {
		r.Observe(time.Duration(i) * time.Millisecond)
	}
	qs := r.Quantiles(0, 0.5, 0.99, 1)
	if qs[0] != 1*time.Millisecond || qs[3] != 100*time.Millisecond {
		t.Errorf("min/max = %v / %v", qs[0], qs[3])
	}
	if qs[1] < 49*time.Millisecond || qs[1] > 52*time.Millisecond {
		t.Errorf("p50 = %v", qs[1])
	}
	if qs[2] < 98*time.Millisecond || qs[2] > 100*time.Millisecond {
		t.Errorf("p99 = %v", qs[2])
	}

	// Ring wraps: only the most recent 100 observations count.
	for i := 0; i < 100; i++ {
		r.Observe(time.Second)
	}
	if got := r.Quantiles(0)[0]; got != time.Second {
		t.Errorf("post-wrap min = %v", got)
	}
	if got := count(r); got != 100 {
		t.Errorf("Count = %d", got)
	}
}
