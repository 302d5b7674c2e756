package layer

import (
	"errors"
	"fmt"
	"math"

	"github.com/slide-cpu/slide/internal/health"
)

// Finite-weight validation for the quarantine layer. Snapshot publication
// and replica delta admission scan weight views for NaN/Inf before a
// version is allowed to serve: a sampled (strided) full scan on base
// snapshots — cheap, and biases are always scanned completely because
// poisoned gradients reach every bias they touch — and an exact scan on
// delta-touched rows, where the row list is known and small.

// ErrNonFinite is the sentinel every finite-scan failure wraps; the
// quarantine paths test errors.Is against it.
var ErrNonFinite = errors.New("layer: non-finite parameter")

// checkBias and checkVec are the two scans every check is made of.
func (v wireView) checkBias() error {
	if i := health.FirstNonFinite32(v.bias); i >= 0 {
		return fmt.Errorf("%w: %sbias[%d]", ErrNonFinite, v.where, i)
	}
	return nil
}

func (v wireView) checkVec(i int) error {
	if k := v.vecs.firstNonFinite(i); k >= 0 {
		return fmt.Errorf("%w: %s%s %d element %d", ErrNonFinite, v.where, v.vec, i, k)
	}
	return nil
}

// checkFinite scans the bias completely and every stride-th weight vector
// completely (stride <= 1 scans everything). Deterministic: the visited set
// depends only on stride and the view's shape.
func (v wireView) checkFinite(stride int) error {
	if err := v.checkBias(); err != nil {
		return err
	}
	for i := 0; i < v.vecs.n(); i += max(stride, 1) {
		if err := v.checkVec(i); err != nil {
			return err
		}
	}
	return nil
}

// checkFiniteIDs scans exactly the named vectors plus the full bias — the
// delta-admission path, where ids is the touch journal. Ids the view does
// not have are skipped.
func (v wireView) checkFiniteIDs(ids []int32) error {
	if err := v.checkBias(); err != nil {
		return err
	}
	for _, i := range ids {
		if int(i) >= v.vecs.n() {
			continue
		}
		if err := v.checkVec(int(i)); err != nil {
			return err
		}
	}
	return nil
}

// CheckFinite scans the bias completely and every stride-th column
// completely (stride <= 1 scans everything).
func (w *ColWeights) CheckFinite(stride int) error { return w.wire().checkFinite(stride) }

// CheckFiniteCols scans exactly the named columns plus the full bias.
func (w *ColWeights) CheckFiniteCols(ids []int32) error { return w.wire().checkFiniteIDs(ids) }

// CheckFinite scans the bias completely and every stride-th row completely
// (stride <= 1 scans everything).
func (w *RowWeights) CheckFinite(stride int) error { return w.wire().checkFinite(stride) }

// CheckFiniteRows scans exactly the named rows plus the full bias.
func (w *RowWeights) CheckFiniteRows(ids []int32) error { return w.wire().checkFiniteIDs(ids) }

// PoisonBias overwrites bias i with v (an out-of-range i poisons bias 0).
// Fault injection only (the faultinject nan:<row>/inf:<row> actions): a
// poisoned hidden bias feeds every downstream unit, so the very next forward
// pass produces non-finite logits for every sample regardless of which rows
// LSH sampling selects — the deterministic way to drill the detect →
// rollback loop.
func (t *trainState) PoisonBias(i int, v float32) {
	if i < 0 || i >= len(t.bias) {
		i = 0
	}
	t.bias[i] = v
}

// PoisonValue maps a faultinject poison action name to the value planted.
func PoisonValue(action string) float32 {
	if action == "inf" {
		return float32(math.Inf(1))
	}
	return float32(math.NaN())
}
