package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/slide-cpu/slide/internal/metrics"
	"github.com/slide-cpu/slide/internal/simd"
)

// tinyOpts keeps harness tests fast: smallest dataset floors, one epoch.
func tinyOpts() Options {
	return Options{Scale: 1e-6, Epochs: 1, EvalPointsPerEpoch: 2, EvalSamples: 40, Workers: 2, Seed: 7}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		Title:  "Demo",
		Note:   "a note",
		Header: []string{"A", "LongHeader"},
	}
	tbl.Append("x", 1.25)
	tbl.Append("longer-cell", "y")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Demo", "====", "A", "LongHeader", "longer-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	var csv bytes.Buffer
	if err := tbl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "A,LongHeader\nx,1.25\n") {
		t.Errorf("csv wrong:\n%s", csv.String())
	}
}

func TestWorkloadsGenerate(t *testing.T) {
	ws, err := Workloads(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 3 {
		t.Fatalf("got %d workloads", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		names[w.Name] = true
		if w.Train.Len() == 0 || w.Test.Len() == 0 {
			t.Errorf("%s: empty splits", w.Name)
		}
		if err := w.Train.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Full.Output == 0 || w.Full.Samples == 0 {
			t.Errorf("%s: missing full-scale stats", w.Name)
		}
		cfg := w.NetworkConfig(tinyOpts(), 0, 0)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: invalid network config: %v", w.Name, err)
		}
	}
	for _, want := range []string{"Amazon-670K", "WikiLSH-325K", "Text8"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestRunSLIDEAndDense(t *testing.T) {
	opts := tinyOpts()
	ws, err := Workloads(opts)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[0]

	slide, err := RunSLIDE(w, Optimized, opts)
	if err != nil {
		t.Fatal(err)
	}
	if slide.EpochTime <= 0 || slide.TrainTime <= 0 {
		t.Error("no training time recorded")
	}
	if slide.MeanActive <= 0 || slide.MeanActive > float64(w.Train.Labels) {
		t.Errorf("MeanActive = %g", slide.MeanActive)
	}
	if len(slide.Tracker.Points()) == 0 {
		t.Error("no convergence points recorded")
	}

	dense, err := RunDense(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if dense.EpochTime <= 0 {
		t.Error("dense run recorded no time")
	}
	if dense.MeanActive != float64(w.Train.Labels) {
		t.Errorf("dense MeanActive = %g, want full output", dense.MeanActive)
	}
}

func TestTable1(t *testing.T) {
	rep, err := Table1(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 1 || len(rep.Tables[0].Rows) != 3 {
		t.Fatalf("unexpected report shape: %+v", rep)
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Amazon-670K") {
		t.Error("render missing dataset name")
	}
}

func TestTable4(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration; skipped in -short (race CI)")
	}
	rep, err := Table4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	want := 3 * len(simd.AvailableModes()) // 3 datasets x supported kernel tiers
	if len(tbl.Rows) != want {
		t.Fatalf("got %d rows, want %d", len(tbl.Rows), want)
	}
	// The measured-fastest tier anchors each dataset block at exactly 1.00x.
	perBlock := len(simd.AvailableModes())
	for blk := 0; blk < len(tbl.Rows); blk += perBlock {
		anchored := false
		for _, row := range tbl.Rows[blk : blk+perBlock] {
			if row[4] == "1.00x" {
				anchored = true
			}
		}
		if !anchored {
			t.Errorf("dataset block at row %d has no 1.00x reference", blk)
		}
	}
}

func TestFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration; skipped in -short (race CI)")
	}
	rep, err := Figure6(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Charts) != 6 { // 3 datasets x (convergence + bars)
		t.Fatalf("got %d charts", len(rep.Charts))
	}
	if len(rep.Trackers) != 9 {
		t.Fatalf("got %d trackers", len(rep.Trackers))
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend:") {
		t.Error("convergence chart missing legend")
	}
}

func TestTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration; skipped in -short (race CI)")
	}
	rep, err := Table2(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("got %d tables", len(rep.Tables))
	}
	measured, modeled := rep.Tables[0], rep.Tables[1]
	if len(measured.Rows) != 9 { // 3 datasets x 3 systems
		t.Errorf("measured rows = %d", len(measured.Rows))
	}
	if len(modeled.Rows) != 24 { // 3 datasets x (7 paper systems + host roofline)
		t.Errorf("modeled rows = %d", len(modeled.Rows))
	}
	// The modeled block must preserve the paper's headline ordering on the
	// Amazon workload: optimized SLIDE beats TF V100.
	var optCPX, v100 float64
	for _, row := range modeled.Rows {
		if row[0] != "Amazon-670K" {
			continue
		}
		var v float64
		fmt.Sscanf(row[2], "%f", &v)
		switch row[1] {
		case "Optimized SLIDE CPX":
			optCPX = v
		case "TF V100":
			v100 = v
		}
	}
	if optCPX <= 0 || v100 <= 0 || optCPX >= v100 {
		t.Errorf("modeled ordering broken: OptCPX %.1fs vs V100 %.1fs", optCPX, v100)
	}
}

func TestTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration; skipped in -short (race CI)")
	}
	rep, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 9 { // 3 datasets x 3 modes
		t.Fatalf("got %d rows", len(tbl.Rows))
	}
	// BF16-both must report strictly smaller parameter bytes than FP32
	// (exactly half: same unit suffix, half the number at these sizes).
	var bfBytes, fpBytes float64
	var bfUnit, fpUnit string
	fmt.Sscanf(tbl.Rows[0][4], "%f%s", &bfBytes, &bfUnit)
	fmt.Sscanf(tbl.Rows[2][4], "%f%s", &fpBytes, &fpUnit)
	if bfUnit == fpUnit && bfBytes >= fpBytes {
		t.Errorf("BF16 ParamBytes %v not smaller than FP32 %v",
			tbl.Rows[0][4], tbl.Rows[2][4])
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment regeneration; skipped in -short (race CI)")
	}
	rep, err := Ablations(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("got %d tables", len(rep.Tables))
	}
	if len(rep.Tables[0].Rows) != 4 { // layout grid
		t.Errorf("memory ablation rows = %d", len(rep.Tables[0].Rows))
	}
	if len(rep.Tables[1].Rows) < 2 { // thread sweep: at least 1 and 2
		t.Errorf("thread ablation rows = %d", len(rep.Tables[1].Rows))
	}
	if len(rep.Tables[2].Rows) != 2 { // LSH vs uniform
		t.Errorf("sampling ablation rows = %d", len(rep.Tables[2].Rows))
	}
}

func TestRenderConvergenceEmpty(t *testing.T) {
	out := RenderConvergence("empty", []*metrics.Tracker{metrics.NewTracker("s", "d")})
	if !strings.Contains(out, "no convergence points") {
		t.Errorf("empty chart output: %q", out)
	}
}

func TestRenderBars(t *testing.T) {
	rs := []*RunResult{
		{System: "A", EpochTime: 2 * time.Second, FinalP1: 0.5},
		{System: "B", EpochTime: time.Second, FinalP1: 0.4},
	}
	out := RenderBars("t", rs)
	if !strings.Contains(out, "A") || !strings.Contains(out, "P@1=0.400") {
		t.Errorf("bars output wrong:\n%s", out)
	}
	// Longer bar for the slower system.
	lines := strings.Split(out, "\n")
	if strings.Count(lines[1], "█") <= strings.Count(lines[2], "█") {
		t.Error("bar lengths do not reflect epoch times")
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	o.defaults()
	if o.Scale != 0.01 || o.Epochs != 2 || o.EvalSamples != 200 || o.Workers <= 0 || o.Seed == 0 {
		t.Errorf("defaults wrong: %+v", o)
	}
}
