// Package metrics implements the evaluation metrics of the paper's §5 —
// Precision@k over multi-label predictions — and the convergence tracker
// behind the Figure 6 time-vs-accuracy curves.
package metrics

import (
	"fmt"
	"io"
	"math"
	"time"
)

// TopK returns the indices of the k largest scores, highest first. Ties
// break toward the lower index. k larger than len(scores) is clamped.
func TopK(scores []float32, k int) []int32 {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return nil
	}
	return TopKInto(scores, k, make([]int32, 0, k))
}

// TopKInto is TopK with caller-provided storage: the selection runs in
// out's backing array and the result (highest score first, ties toward the
// lower index) is returned as a slice of it. Allocation-free when
// cap(out) >= min(k, len(scores)) — the hot ranking step of the serving
// path. out's previous contents are ignored.
//
// The selection keeps a size-k min-heap of candidate indices ordered by
// (score, -index), so a full ranking costs O(n log k); once the heap is full
// a score is first compared with the heap's minimum, held in a local, and
// only one that beats it reaches the heap — one comparison per score in the
// common below-threshold case.
func TopKInto(scores []float32, k int, out []int32) []int32 {
	if k > len(scores) {
		k = len(scores)
	}
	if k <= 0 {
		return out[:0]
	}
	h := out[:0]
	// worse reports whether index a ranks strictly below index b: lower
	// score, or equal score with the higher index. It is a total order, so
	// the heap-sorted output is deterministic.
	worse := func(a, b int32) bool {
		sa, sb := scores[a], scores[b]
		return sa < sb || (sa == sb && a > b)
	}
	// The first k candidates fill the heap, each sifted up.
	for i := 0; i < k; i++ {
		h = append(h, int32(i))
		j := i
		for j > 0 {
			parent := (j - 1) / 2
			if !worse(h[j], h[parent]) {
				break
			}
			h[j], h[parent] = h[parent], h[j]
			j = parent
		}
	}
	// Candidates iterate in ascending index order, so an incoming score
	// equal to the current k-th best is always worse (higher index) and
	// rejected with the lower ones — the tie-toward-lower-index rule falls
	// out for free, and "beats the minimum" is the one comparison
	// scores[i] > thr. Written as !(… > thr) so that a NaN on either side
	// rejects, exactly as worse's comparisons do.
	thr := scores[h[0]]
	for i := k; i < len(scores); i++ {
		if !(scores[i] > thr) {
			continue
		}
		h[0] = int32(i)
		siftDown(h, 0, worse)
		thr = scores[h[0]]
	}
	// Heap-sort in place: repeatedly move the current worst to the back,
	// leaving the slice ordered best-first.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0, worse)
	}
	return h
}

func siftDown(h []int32, j int, worse func(a, b int32) bool) {
	for {
		l := 2*j + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && worse(h[r], h[l]) {
			min = r
		}
		if !worse(h[min], h[j]) {
			return
		}
		h[j], h[min] = h[min], h[j]
		j = min
	}
}

// PrecisionAtK computes P@k for one sample: the fraction of the k
// top-scoring predictions that are true labels.
func PrecisionAtK(scores []float32, labels []int32, k int) float64 {
	if k <= 0 || len(labels) == 0 {
		return 0
	}
	set := make(map[int32]bool, len(labels))
	for _, y := range labels {
		set[y] = true
	}
	hits := 0
	top := TopK(scores, k)
	for _, p := range top {
		if set[p] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// Point is one convergence measurement (one row of the Figure 6 series).
type Point struct {
	// Elapsed is cumulative training wall-clock (evaluation time excluded).
	Elapsed time.Duration
	// Epoch counts completed epochs at measurement time.
	Epoch int
	// Batches counts optimizer steps so far.
	Batches int64
	// P1 is Precision@1 on the held-out evaluation slice.
	P1 float64
	// Loss is the mean training loss over the preceding window.
	Loss float64
}

// Tracker accumulates convergence points for one training run.
type Tracker struct {
	// System labels the run (e.g. "Optimized SLIDE").
	System string
	// Dataset labels the workload.
	Dataset string
	points  []Point
}

// NewTracker creates a tracker for one (system, dataset) run.
func NewTracker(system, dataset string) *Tracker {
	return &Tracker{System: system, Dataset: dataset}
}

// Record appends one measurement.
func (t *Tracker) Record(p Point) {
	t.points = append(t.points, p)
}

// Points returns the recorded series.
func (t *Tracker) Points() []Point { return t.points }

// Last returns the most recent point and whether one exists.
func (t *Tracker) Last() (Point, bool) {
	if len(t.points) == 0 {
		return Point{}, false
	}
	return t.points[len(t.points)-1], true
}

// BestP1 returns the highest P@1 observed.
func (t *Tracker) BestP1() float64 {
	best := math.Inf(-1)
	for _, p := range t.points {
		if p.P1 > best {
			best = p.P1
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// TimeToP1 returns the earliest elapsed time at which P@1 reached the
// threshold, and whether it ever did — the "time to any accuracy level"
// comparison the SLIDE papers emphasize.
func (t *Tracker) TimeToP1(threshold float64) (time.Duration, bool) {
	for _, p := range t.points {
		if p.P1 >= threshold {
			return p.Elapsed, true
		}
	}
	return 0, false
}

// WriteCSV emits the series with a header row:
// system,dataset,seconds,epoch,batches,p1,loss
func (t *Tracker) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "system,dataset,seconds,epoch,batches,p1,loss"); err != nil {
		return err
	}
	for _, p := range t.points {
		if _, err := fmt.Fprintf(w, "%s,%s,%.3f,%d,%d,%.4f,%.4f\n",
			t.System, t.Dataset, p.Elapsed.Seconds(), p.Epoch, p.Batches, p.P1, p.Loss); err != nil {
			return err
		}
	}
	return nil
}
