package main

import (
	"math"
	"sort"
)

// dist summarizes one set of measurements: the median with its quartiles
// and the sample count, the shape every reported timing carries.
type dist struct {
	N             int
	P25, P50, P75 float64
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between closest ranks (0 for an empty slice).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summarize returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) cuts them (the "exclusive" method), so a
// spread printed here is the number the benchmark's driver computes from
// the same values. One value is its own three quartiles.
func summarize(xs []float64) dist {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return dist{}
	}
	cut := func(i int) float64 {
		if n == 1 {
			return s[0]
		}
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return dist{N: n, P25: cut(1), P50: cut(2), P75: cut(3)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure bounds are compared against.
func (d dist) spread() float64 {
	if d.P50 == 0 {
		return 0
	}
	return math.Abs((d.P75 - d.P25) / d.P50)
}

// op is one completed closed-loop operation of a measured window: an
// optimizer step or an HTTP request. Times are seconds since the window
// opened; units is the work the op carried (samples or queries).
type op struct {
	start, end float64
	units      int
}

// A measured window is split into blocks of equal op count and throughput
// is the median over blocks, so a stall moves the blocks it covers and not
// the figure: at least minBlocks of them (a window runs on until it has that
// many), at most maxBlocks (beyond which a block is too short to time).
const (
	minBlocks = 5
	maxBlocks = 20
)

// blockThroughput splits ops (ordered by completion) into blocks of equal
// op count, a multiple of align, and returns units per second for each
// block; trailing ops that do not fill a block are left out. Block k runs
// from the completion of block k-1's last op to its own last completion; the
// first block opens at time 0.
func blockThroughput(ops []op, align int) []float64 {
	per := max(len(ops)/maxBlocks/align, 1) * align
	blocks := len(ops) / per
	out := make([]float64, 0, blocks)
	from := 0.0
	for b := 0; b < blocks; b++ {
		units := 0
		for _, o := range ops[b*per : (b+1)*per] {
			units += o.units
		}
		to := ops[(b+1)*per-1].end
		if to > from {
			out = append(out, float64(units)/(to-from))
		}
		from = to
	}
	return out
}

// meanThroughput is units per second over the leading ops, as many as make
// a multiple of align; the short stretches of a traced run compare by it.
func meanThroughput(ops []op, align int) float64 {
	n := len(ops) / align * align
	if n == 0 {
		return 0
	}
	units := 0
	for _, o := range ops[:n] {
		units += o.units
	}
	return float64(units) / ops[n-1].end
}

// latenciesMS returns each op's duration in milliseconds, ascending.
func latenciesMS(ops []op) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = (o.end - o.start) * 1e3
	}
	sort.Float64s(out)
	return out
}
