package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SizeHistogram counts exact occurrences of small bounded integer
// observations — batch sizes in the serving pipeline, where the batcher's
// max batch size bounds the domain. All methods are safe for concurrent
// use; Observe is a single atomic add.
type SizeHistogram struct {
	counts []atomic.Uint64 // counts[i] holds observations of size i+1
}

// NewSizeHistogram builds a histogram for observations in [1, max].
func NewSizeHistogram(max int) *SizeHistogram {
	if max < 1 {
		max = 1
	}
	return &SizeHistogram{counts: make([]atomic.Uint64, max)}
}

// Observe records one observation. Values are clamped into [1, max].
func (h *SizeHistogram) Observe(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(h.counts) {
		n = len(h.counts)
	}
	h.counts[n-1].Add(1)
}

// Counts returns a copy of the per-size counts: out[i] observations of
// size i+1.
func (h *SizeHistogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Mean returns the average observed size (0 with no observations).
func (h *SizeHistogram) Mean() float64 {
	var n, sum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		n += c
		sum += c * uint64(i+1)
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Reservoir keeps the most recent cap duration observations in a ring and
// serves quantiles over them — the p50/p99 latency window of the serving
// /stats endpoint. Safe for concurrent use; Observe takes one mutex.
type Reservoir struct {
	mu   sync.Mutex
	ring []time.Duration
	next int
	full bool
}

// NewReservoir builds a sliding window over the last cap observations.
func NewReservoir(cap int) *Reservoir {
	if cap < 1 {
		cap = 1
	}
	return &Reservoir{ring: make([]time.Duration, cap)}
}

// Observe records one duration.
func (r *Reservoir) Observe(d time.Duration) {
	r.mu.Lock()
	r.ring[r.next] = d
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Quantiles returns the q-quantiles (0 <= q <= 1, nearest-rank) over one
// consistent copy of the current window (one lock, one sort), or zeros when
// nothing has been observed.
func (r *Reservoir) Quantiles(qs ...float64) []time.Duration {
	r.mu.Lock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	window := append([]time.Duration(nil), r.ring[:n]...)
	r.mu.Unlock()

	out := make([]time.Duration, len(qs))
	if n == 0 {
		return out
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	for i, q := range qs {
		rank := int(q*float64(n-1) + 0.5)
		if rank < 0 {
			rank = 0
		}
		if rank >= n {
			rank = n - 1
		}
		out[i] = window[rank]
	}
	return out
}
