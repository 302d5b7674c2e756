package metrics

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// topKClosure is TopKInto as it stood before the threshold was hoisted: every
// score past the k-th goes through the heap's ordering closure. It is the
// oracle for inputs the documented order does not cover (NaN compares false
// with everything, so where a NaN lands depends on the heap's comparisons).
func topKClosure(scores []float32, k int) []int32 {
	k = min(k, len(scores))
	if k <= 0 {
		return nil
	}
	worse := func(a, b int32) bool {
		sa, sb := scores[a], scores[b]
		return sa < sb || (sa == sb && a > b)
	}
	var h []int32
	for i := range scores {
		c := int32(i)
		if len(h) < k {
			h = append(h, c)
			for j := len(h) - 1; j > 0; {
				parent := (j - 1) / 2
				if !worse(h[j], h[parent]) {
					break
				}
				h[j], h[parent] = h[parent], h[j]
				j = parent
			}
			continue
		}
		if !worse(h[0], c) {
			continue
		}
		h[0] = c
		siftDown(h, 0, worse)
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0, worse)
	}
	return h
}

// topKSorted is the documented contract by brute force: every index, fully
// sorted by score descending then index ascending, cut at k. NaN-free input
// only.
func topKSorted(scores []float32, k int) []int32 {
	all := make([]int32, len(scores))
	for i := range all {
		all[i] = int32(i)
	}
	slices.SortFunc(all, func(a, b int32) int {
		switch {
		case scores[a] > scores[b]:
			return -1
		case scores[a] < scores[b]:
			return 1
		}
		return int(a - b)
	})
	return all[:max(0, min(k, len(all)))]
}

func hasNaN(scores []float32) bool {
	return slices.ContainsFunc(scores, func(v float32) bool { return v != v })
}

// checkTopKInto compares TopKInto with both oracles that apply to scores.
func checkTopKInto(t *testing.T, name string, scores []float32, k int) {
	t.Helper()
	got := TopKInto(scores, k, nil)
	if want := topKClosure(scores, k); !slices.Equal(got, want) {
		t.Fatalf("%s k=%d: got %v, closure form %v (scores %v)", name, k, got, want, scores)
	}
	if !hasNaN(scores) {
		if want := topKSorted(scores, k); !slices.Equal(got, want) {
			t.Fatalf("%s k=%d: got %v, full sort %v (scores %v)", name, k, got, want, scores)
		}
	}
}

// TestTopKIntoThresholdSkip: rejecting a below-threshold score with one
// hoisted comparison selects exactly what the full sort under the documented
// order selects — and, where NaNs put the input outside that order, exactly
// what the closure form selected — over ties at the k-th place, runs of equal
// scores, and NaN and ±Inf on either side of the point where the heap fills.
func TestTopKIntoThresholdSkip(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for name, scores := range map[string][]float32{
		"ascending":          {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		"descending":         {12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
		"all equal":          {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
		"tie at the k-th":    {9, 5, 5, 8, 5, 7, 5, 5, 6, 5, 5, 5},
		"runs":               {1, 1, 1, 4, 4, 4, 2, 2, 2, 4, 4, 1, 1, 4},
		"late winners":       {0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5},
		"signed zeros":       {0, float32(math.Copysign(0, -1)), 0, float32(math.Copysign(0, -1)), 0, 0, 0, 0},
		"inf early":          {inf, -inf, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10},
		"inf late":           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, -inf, inf, inf},
		"all -inf":           {-inf, -inf, -inf, -inf, -inf, -inf, -inf, -inf},
		"nan early":          {nan, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		"nan in the heap":    {1, nan, 2, nan, 3, 9, 8, 7, 6, 5, 4, 3},
		"nan late":           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, nan, 11, nan, 12},
		"nan at the minimum": {nan, nan, nan, nan, nan, nan, 5, 6, 7, 8, 9, 10},
		"all nan":            {nan, nan, nan, nan, nan, nan, nan, nan},
		"nan and inf":        {inf, nan, -inf, nan, inf, 0, nan, -inf, inf, 1, nan, 2},
		"one":                {4},
		"empty":              {},
	} {
		n := len(scores)
		for _, k := range []int{0, 1, 5, n - 1, n, n + 3} {
			checkTopKInto(t, name, scores, k)
		}
	}
}

// FuzzTopKInto reads the input as raw float32 bit patterns (NaN payloads,
// infinities, denormals and signed zeros included) and a k.
func FuzzTopKInto(f *testing.F) {
	le := binary.LittleEndian
	seed := func(k int, vals ...float32) {
		var b []byte
		for _, v := range vals {
			b = le.AppendUint32(b, math.Float32bits(v))
		}
		f.Add(b, k)
	}
	nan := float32(math.NaN())
	seed(3, 1, 5, 5, 2, 5, 9, 5, 0)
	seed(1, nan, 1, 2, 3)
	seed(5, 1, 2, nan, 4, 5, 6, float32(math.Inf(1)), 8, nan, 10)
	seed(2, float32(math.Inf(-1)), float32(math.Inf(-1)), float32(math.Inf(-1)))
	seed(0)
	f.Fuzz(func(t *testing.T, raw []byte, k int) {
		if len(raw) > 4096 || k < -1 || k > 2048 {
			t.Skip()
		}
		scores := make([]float32, len(raw)/4)
		for i := range scores {
			scores[i] = math.Float32frombits(le.Uint32(raw[4*i:]))
		}
		checkTopKInto(t, "fuzz", scores, k)
	})
}
