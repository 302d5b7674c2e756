package layer

import (
	"math/bits"
	"sync/atomic"
)

// touchSet is a concurrent bitset recording which weight rows/columns
// received gradient this batch, so the ADAM pass visits only the sparse
// touched subset (the p² update fraction of §2). Marking uses atomic Or so
// it is race-detector clean in every update policy.
type touchSet struct {
	words []atomic.Uint32
	n     int
}

func newTouchSet(n int) *touchSet {
	return &touchSet{words: make([]atomic.Uint32, (n+31)/32), n: n}
}

func (t *touchSet) mark(i int32) {
	w := &t.words[uint32(i)>>5]
	bit := uint32(1) << (uint32(i) & 31)
	if w.Load()&bit == 0 { // cheap read avoids contended RMW on re-marks
		w.Or(bit)
	}
}

// count returns the number of marked ids.
func (t *touchSet) count() int {
	c := 0
	for i := range t.words {
		c += bits.OnesCount32(t.words[i].Load())
	}
	return c
}

func (t *touchSet) clear() {
	for i := range t.words {
		t.words[i].Store(0)
	}
}

// orFrom folds src's marked bits into t. Called between batches (after the
// gradient pass, before src is cleared), so plain word-wise OR of atomic
// loads is enough — no concurrent markers are active.
func (t *touchSet) orFrom(src *touchSet) {
	for i := range t.words {
		if word := src.words[i].Load(); word != 0 {
			t.words[i].Store(t.words[i].Load() | word)
		}
	}
}

// markAll sets every bit — the dense-update case (ApplyAdamAll), where the
// whole layer changed and a journal consumer must treat every id as touched.
func (t *touchSet) markAll() {
	for i := range t.words {
		t.words[i].Store(^uint32(0))
	}
}

// ids returns the marked ids in ascending order.
func (t *touchSet) ids() []int32 {
	out := make([]int32, 0, t.count())
	t.forEachRange(0, t.n, func(id int32) { out = append(out, id) })
	return out
}

// forEachRange invokes f(id) for every marked id in [lo, hi), ascending.
// Partial boundary words are masked, so ranges that share a 32-bit word
// never visit each other's ids. Single-threaded per call; the ADAM pass runs
// one call per worker stripe concurrently, which is safe because the ranges
// are disjoint and reads are atomic.
func (t *touchSet) forEachRange(lo, hi int, f func(id int32)) {
	if lo < 0 {
		lo = 0
	}
	if hi > t.n {
		hi = t.n
	}
	if lo >= hi {
		return
	}
	wLo, wHi := lo>>5, (hi-1)>>5
	for wi := wLo; wi <= wHi; wi++ {
		word := t.words[wi].Load()
		if wi == wLo {
			word &= ^uint32(0) << (uint32(lo) & 31)
		}
		if wi == wHi {
			if r := (uint32(hi)-1)&31 + 1; r < 32 {
				word &= (uint32(1) << r) - 1
			}
		}
		for ; word != 0; word &= word - 1 {
			f(int32(wi*32 + bits.TrailingZeros32(word)))
		}
	}
}
