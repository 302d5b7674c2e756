package slide

// Quantized serving: a Predictor can be re-rendered with its output layer —
// the overwhelming bulk of a SLIDE model — packed to int8 codes with per-row
// scales. Training always stays full precision; quantization is a
// publish-side transform applied between Snapshot and serving, and the
// quantized predictor implements the exact same serving surface (Predict,
// PredictEntries, CheckFinite, ...) so it drops into the batcher and
// snapshot-manager pipelines unchanged.

// Quantize returns a new Predictor serving from a packed integer rendering
// of this snapshot's output layer. bits must be 8, the only width (any other
// value is an error). The receiver is unmodified and remains fully usable;
// the two predictors share the hidden stack and LSH tables. The result carries a fresh Version, so
// serving pipelines treat it as a distinct snapshot. Snapshots holding
// NaN/Inf weights refuse to quantize (the error unwraps to the same
// non-finite sentinel CheckFinite reports).
func (p *Predictor) Quantize(bits int) (*Predictor, error) {
	qp, err := p.p.Quantize(bits)
	if err != nil {
		return nil, err
	}
	return FromRaw(qp, snapshotVersion.Add(1)), nil
}

// SnapshotPrecision names the output-layer storage this snapshot serves
// from: "f32", "bf16" or "int8". Surfaced by the serving /stats
// endpoint.
func (p *Predictor) SnapshotPrecision() string { return p.p.PrecisionName() }

// PackedBytes returns the serialized size of the snapshot's output-layer
// representation — the number the int8-vs-f32 compression ratio is measured
// on (hidden stack and tables are identical across precisions and excluded).
func (p *Predictor) PackedBytes() int64 { return p.p.PackedBytes() }

// ScreenStats reports how many queries the exact ranking entry points
// (Predict, PredictEntries, PredictBatch, Evaluate) have ranked through this
// snapshot's int8 screen, and how many output rows they scored in float32
// for them: queries × NumLabels would be the full walk's. An f32 or bf16
// snapshot ranks through the screen; an int8 one, and Scores, never do.
// Surfaced by the serving /stats endpoint.
func (p *Predictor) ScreenStats() (queries, rows uint64) { return p.p.ScreenStats() }
