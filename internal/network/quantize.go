package network

import (
	"fmt"
	"math"

	"github.com/slide-cpu/slide/internal/layer"
	"github.com/slide-cpu/slide/internal/quant"
)

// Quantized serving predictors. Quantize derives a packed-int8 predictor
// from a full-precision snapshot: the output layer — the overwhelming bulk
// of a SLIDE model — is re-rendered as per-row symmetric integer codes,
// while the hidden stack, LSH tables, shard plan, and inference seed are
// shared with the source predictor unchanged. Training never quantizes; this is strictly a publish-side
// transform, applied between Snapshot and serving (or between Snapshot and
// replication, see internal/replicate).

// Quantize returns a new Predictor serving from a quantized rendering of
// this predictor's output layer. bits must be 8. The source predictor is
// unmodified and remains fully usable; the two share everything except the
// output representation. Snapshots containing NaN/Inf rows refuse to
// quantize with an error wrapping ErrNonFinite (the same quarantine signal
// the health layer tests for).
func (p *Predictor) Quantize(bits int) (*Predictor, error) {
	if p.fwd.qout != nil {
		return nil, fmt.Errorf("network: predictor is already quantized (int%d)", p.fwd.qout.Bits)
	}
	q, err := quant.QuantizeRowWeights(p.fwd.output, bits)
	if err != nil {
		return nil, err
	}
	f := *p.fwd // shallow copy: hidden/middle/tables/plan/dims shared
	f.output = nil
	f.qout = q
	qp := newPredictor(&f, p.seed)
	qp.steps = p.steps
	return qp, nil
}

// QuantizedBits returns the packed bit width (8), or 0 for a
// full-precision predictor.
func (p *Predictor) QuantizedBits() int {
	if p.fwd.qout == nil {
		return 0
	}
	return p.fwd.qout.Bits
}

// PrecisionName names the output-layer storage this predictor serves from:
// "int8" when quantized, "bf16" when weights are stored bfloat16,
// "f32" otherwise (FP32 and BF16Act both keep f32 weight rows).
func (p *Predictor) PrecisionName() string {
	if q := p.fwd.qout; q != nil {
		return fmt.Sprintf("int%d", q.Bits)
	}
	if p.fwd.cfg.Precision == layer.BF16Both {
		return "bf16"
	}
	return "f32"
}

// PackedBytes returns the serialized size of the output-layer
// representation — packed bytes for a quantized predictor, the f32/BF16
// view size otherwise. The /stats "snapshot bytes" number and the bench
// report's compression ratio both come from here.
func (p *Predictor) PackedBytes() int64 {
	if q := p.fwd.qout; q != nil {
		return q.PackedBytes()
	}
	return outputViewBytes(p.fwd)
}

// outputViewBytes computes the SerializeView wire size of the f32/BF16
// output view.
func outputViewBytes(f *forwardState) int64 {
	elem := 4
	if f.cfg.Precision == layer.BF16Both {
		elem = 2
	}
	return int64(viewSize(math.MaxInt, 3, f.output.Out, f.output.In, elem, f.output.Out))
}
