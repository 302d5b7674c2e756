package dataset

import (
	"fmt"
	"math"
	"sort"
)

// Zipf samples ranks 0..n-1 with P(i) ∝ 1/(i+1)^s — the power-law label
// popularity of extreme-classification datasets and the unigram distribution
// of natural-language corpora. (math/rand/v2 dropped the v1 Zipf generator,
// so the substrate carries its own inverse-CDF sampler.)
type Zipf struct {
	cum []float64 // cumulative probabilities, cum[n-1] == 1
}

// NewZipf builds a sampler over n ranks with exponent s >= 0
// (s=0 is uniform).
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dataset: Zipf needs n > 0, got %d", n)
	}
	if s < 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("dataset: Zipf exponent must be >= 0, got %g", s)
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	cum[n-1] = 1 // guard against rounding
	return &Zipf{cum: cum}, nil
}

// Sample maps a uniform u in [0,1) to a rank by inverse CDF.
func (z *Zipf) Sample(u float64) int {
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
