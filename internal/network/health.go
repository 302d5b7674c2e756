package network

import (
	"fmt"

	"github.com/slide-cpu/slide/internal/layer"
)

// Snapshot admission validation: before a snapshot version is allowed to
// serve — trainer-side publish, hub admission, replica delta apply — its
// weight views are scanned for NaN/Inf. Base snapshots get a sampled scan
// (every quarantineStride-th weight vector, all biases — poisoned gradients
// always reach the biases of the rows they touch, so the bias scan alone
// catches realistic poison deterministically). Deltas get an exact scan of
// the touched rows, whose ids the delta already names.

// ErrNonFinite is re-exported so callers of CheckFinite can errors.Is
// against it without importing internal/layer.
var ErrNonFinite = layer.ErrNonFinite

// quarantineStride is the sampling stride for base-snapshot scans. Biases
// are always scanned whole; of the weight vectors, every stride-th is. The
// visited set is a pure function of the layer shape, so the verdict is
// deterministic and identical on trainer, hub, and every replica.
const quarantineStride = 16

// CheckFinite validates the predictor's weights: full bias scans plus a
// strided sample of the weight vectors on every layer. Returns nil or an
// error wrapping ErrNonFinite naming the first bad parameter.
func (p *Predictor) CheckFinite() error {
	if err := p.fwd.hidden.CheckFinite(quarantineStride); err != nil {
		return fmt.Errorf("network: snapshot step %d: %w", p.steps, err)
	}
	for i, mv := range p.fwd.middle {
		if err := mv.CheckFinite(quarantineStride); err != nil {
			return fmt.Errorf("network: snapshot step %d: middle %d: %w", p.steps, i+1, err)
		}
	}
	if q := p.fwd.qout; q != nil {
		// Quantized output: the packed integer codes cannot hold NaN/Inf by
		// construction, so the scan covers the f32 sidecars (scales, biases)
		// exactly — cheaper than the strided f32 row scan and just as strict.
		if err := q.CheckFinite(); err != nil {
			return fmt.Errorf("network: snapshot step %d: output: %w", p.steps, err)
		}
		return nil
	}
	if err := p.fwd.output.CheckFinite(quarantineStride); err != nil {
		return fmt.Errorf("network: snapshot step %d: output: %w", p.steps, err)
	}
	return nil
}

// CheckFinite validates exactly the weights the delta touches (plus every
// bias, which deltas always carry whole): exact where the base scan is
// sampled, because here the candidate set is known and small.
func (d *Delta) CheckFinite() error {
	if err := d.to.hidden.CheckFiniteCols(d.HiddenCols); err != nil {
		return fmt.Errorf("network: delta to step %d: %w", d.ToStep, err)
	}
	for i, mv := range d.to.middle {
		// The middle stack is dense-updated and ships whole: scan it whole.
		if err := mv.CheckFinite(1); err != nil {
			return fmt.Errorf("network: delta to step %d: middle %d: %w", d.ToStep, i+1, err)
		}
	}
	if err := d.to.output.CheckFiniteRows(d.OutputRows); err != nil {
		return fmt.Errorf("network: delta to step %d: output: %w", d.ToStep, err)
	}
	return nil
}
