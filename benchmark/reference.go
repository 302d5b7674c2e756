package main

import (
	"sync"
	"time"
)

// The box this benchmark runs on is a few cores of a shared host, and its
// speed is not its own: the same binary trains 27k samples/s for some
// minutes and 19k for the next, as the neighbours' load changes. A run that lasts seconds sits inside one such stretch,
// so no median over the run removes it, and ten runs of one commit then
// differ by more than any bound a benchmark could set.
//
// So every run carries its own yardstick. A reference slice is a fixed
// piece of work that belongs to the benchmark and calls nothing of the
// repository: on each thread, gather-and-sum rows of a table that does not
// fit the core's own cache (memory latency, as the sparse row work of a
// SLIDE step), then of one that does (core speed). Slices are run all
// through the measured window, between operations, on as many threads as the
// workload keeps busy; the median slice time over a nominal one is the run's
// speed factor, and every end-to-end timing is reported at nominal speed:
// throughput times the factor, latency and set-up time over it. The raw
// figures and the factor are in the run's detail. Measured over ten seeds a
// workload on a day with both kinds of stretch: throughput spreads of
// 16-28 % as the clock gave them, 6-9 % corrected (README.md has the table,
// and the one workload it does not help).
//
// What this cannot see is a change to the reference itself, so it must not
// change: a later comparison of two commits is only valid if this file is
// the same in both.
const (
	refBigBytes   = 8 << 20   // per thread; beyond L2 on every current core
	refSmallBytes = 512 << 10 // per thread; inside it
	refRowFloats  = 128       // one gathered row: 512 bytes, an amazon-s output row
	refBigRows    = 25000     // rows gathered per slice and thread from the big table
	refSmallRows  = 60000     // and from the small one: about the same time again
	// refNominal is the slice time the corrected figures are scaled to. It
	// only sets their scale; the development box takes 6.5 to 9 ms.
	refNominal = 10 * time.Millisecond
	// refEvery is how often a window stops for a slice.
	refEvery = 200 * time.Millisecond
	// refSetupSlices are run after each repetition of the set-up.
	refSetupSlices = 8
)

type reference struct {
	big, small [][]float32 // one table of each size per thread
	secs       []float64   // every slice so far
	last       time.Time   // when the newest slice ended
	sink       float32
}

func newReference(threads int) *reference {
	r := &reference{big: make([][]float32, threads), small: make([][]float32, threads)}
	fill := func(n int) []float32 {
		t := make([]float32, n)
		for i := range t {
			t[i] = 1
		}
		return t
	}
	for t := range r.big {
		r.big[t] = fill(refBigBytes / 4)
		r.small[t] = fill(refSmallBytes / 4)
	}
	return r
}

// gather sums n pseudo-randomly chosen rows of table.
func gather(table []float32, n int, x uint64) float32 {
	rows := uint64(len(table) / refRowFloats)
	var acc float32
	for k := 0; k < n; k++ {
		x = x*6364136223846793005 + 1442695040888963407
		at := int((x>>33)%rows) * refRowFloats
		row := table[at : at+refRowFloats]
		var a0, a1, a2, a3 float32
		for i := 0; i < refRowFloats; i += 4 {
			a0 += row[i]
			a1 += row[i+1]
			a2 += row[i+2]
			a3 += row[i+3]
		}
		acc += a0 + a1 + a2 + a3
	}
	return acc
}

// slice runs the fixed work once on every thread and records how long the
// slowest took. The caller has stopped the workload's own threads.
func (r *reference) slice() {
	var wg sync.WaitGroup
	sums := make([]float32, len(r.big))
	t0 := time.Now()
	for t := range r.big {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sums[t] = gather(r.big[t], refBigRows, uint64(2*t+1)) + gather(r.small[t], refSmallRows, uint64(2*t+2))
		}(t)
	}
	wg.Wait()
	r.last = time.Now()
	r.secs = append(r.secs, r.last.Sub(t0).Seconds())
	for _, s := range sums {
		r.sink += s // keeps the work alive
	}
}

// run runs n slices back to back (none on a nil reference).
func (r *reference) run(n int) {
	for i := 0; r != nil && i < n; i++ {
		r.slice()
	}
}

// due runs a slice when refEvery has passed since the last one. A nil
// reference (the traced run, whose timings are per layer and raw) does
// nothing.
func (r *reference) due() {
	if r != nil && time.Since(r.last) >= refEvery {
		r.slice()
	}
}

// factor is how many times slower than nominal the box ran the slices from
// index from on: their median time over refNominal.
func (r *reference) factor(from int) float64 {
	return median(r.secs[from:]) / refNominal.Seconds()
}
