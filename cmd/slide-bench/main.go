// Command slide-bench regenerates the paper's evaluation artifacts: every
// table (1-4) and Figure 6, plus the memory-layout and thread-scaling
// ablations. Measured rows run on this host at -scale of the paper's
// dataset sizes; cross-platform rows come from the roofline cost model.
//
// Usage:
//
//	slide-bench -exp all -scale 0.01 -epochs 2 -outdir results/
//	slide-bench -exp table2
//	slide-bench -exp fig6 -scale 0.02 -epochs 3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/slide-cpu/slide/internal/harness"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1|table2|table3|table4|fig6|ablations|all")
		scale   = flag.Float64("scale", 0.01, "fraction of the paper's dataset dimensions")
		epochs  = flag.Int("epochs", 2, "training epochs per measured run")
		workers = flag.Int("workers", 0, "HOGWILD workers (0 = GOMAXPROCS)")
		seed    = flag.Uint64("seed", 42, "random seed")
		outdir  = flag.String("outdir", "", "directory for CSV exports (optional)")
		evalN   = flag.Int("evalsamples", 200, "held-out samples per evaluation")
	)
	flag.Parse()

	opts := harness.Options{
		Scale:       *scale,
		Epochs:      *epochs,
		Workers:     *workers,
		Seed:        *seed,
		EvalSamples: *evalN,
	}

	experiments := map[string]func(harness.Options) (*harness.Report, error){
		"table1":    harness.Table1,
		"table2":    harness.Table2,
		"table3":    harness.Table3,
		"table4":    harness.Table4,
		"fig6":      harness.Figure6,
		"ablations": harness.Ablations,
	}
	order := []string{"table1", "table2", "table3", "table4", "fig6", "ablations"}

	var selected []string
	if *exp == "all" {
		selected = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := experiments[name]; !ok {
				fmt.Fprintf(os.Stderr, "slide-bench: unknown experiment %q (valid: %s, all)\n",
					name, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	for _, name := range selected {
		fmt.Printf("running %s (scale %g, %d epochs)...\n\n", name, *scale, *epochs)
		rep, err := experiments[name](opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "slide-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if err := rep.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "slide-bench: render: %v\n", err)
			os.Exit(1)
		}
		if *outdir != "" {
			if err := export(rep, *outdir); err != nil {
				fmt.Fprintf(os.Stderr, "slide-bench: export: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// export writes every table and tracker of the report as CSV files.
func export(rep *harness.Report, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range rep.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_%d.csv", rep.Name, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	for _, tr := range rep.Trackers {
		slug := strings.NewReplacer(" ", "_", "/", "-").Replace(tr.System + "_" + tr.Dataset)
		path := filepath.Join(dir, fmt.Sprintf("%s_curve_%s.csv", rep.Name, slug))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := tr.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}
