// Command benchmark is the repository's one performance harness: seven
// fixed workloads driven through the public entry points (slide.Trainer,
// serving.Server over loopback HTTP, replicate.Hub and Client), each
// checked for correctness and reported by metric name and unit.
//
//	go run ./benchmark                          every workload, end-to-end metrics
//	go run ./benchmark -trace 1                 every workload, per-layer metrics and span files
//	go run ./benchmark -workload serve_batch    one workload; the last line of output is its JSON
//	go run ./benchmark -runs 10 -json A.json    ten seeds per workload, medians and quartiles across runs
//	go run ./benchmark -compare A.json B.json   apply BENCHMARK.json's bounds to two such files
//	bash benchmark/run.sh --workload W ...      the driver's form: builds into .bench_build, then runs
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

const (
	// defaultSeconds mirrors run_seconds in BENCHMARK.json.
	defaultSeconds = 18
	// specPath is the benchmark definition -compare takes bounds from; the
	// program runs from the repository root.
	specPath = "BENCHMARK.json"
)

// runConfig is one workload run's knobs.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	procs    int
	// outDir receives span files and the children's result files.
	outDir string
	// smoke shrinks datasets and step counts so every workload finishes in
	// well under a second; accuracy floors are not asserted at that size.
	// Only the smoke test sets it.
	smoke bool
}

// pretrainSteps is how long a fixture trains before it serves: full, or a
// token amount at smoke size.
func (c *runConfig) pretrainSteps(full int) int {
	if c.smoke {
		return 8
	}
	return full
}

// reference makes the run's speed yardstick for a workload that keeps
// threads threads busy; the traced run, whose timings are raw, has none.
func (c *runConfig) reference(threads int) *reference {
	if c.trace {
		return nil
	}
	return newReference(threads)
}

func main() {
	var (
		c       = runConfig{outDir: filepath.Join("benchmark", "out")}
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file per workload")
		runs    = flag.Int("runs", 1, "runs per workload, each with the next seed; values are medians over runs")
		jsonOut = flag.String("json", "", "write the full result (all fields, all workloads run) to this file")
		compare = flag.Bool("compare", false, "compare two -json files of -runs 2 or more, given as arguments, and exit")
	)
	flag.StringVar(&c.workload, "workload", "", "run only this workload, in this process (default: all, one child process each)")
	flag.Uint64Var(&c.seed, "seed", 42, "seed for dataset generation, model init and request order")
	flag.Float64Var(&c.seconds, "seconds", defaultSeconds, "length of the measured window")
	flag.IntVar(&c.procs, "procs", min(runtime.NumCPU(), 4), "GOMAXPROCS, trainer workers and closed-loop client count")
	flag.Parse()
	c.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fatalf("-compare needs two result files")
		}
		os.Exit(runCompare(specPath, flag.Arg(0), flag.Arg(1)))
	}
	if c.procs < 1 || c.seconds <= 0 || *runs < 1 {
		fatalf("-procs, -seconds and -runs must be positive")
	}
	runtime.GOMAXPROCS(c.procs)

	if c.workload != "" {
		res, err := runWorkload(&c)
		if err != nil {
			fatalf("%s: %v", c.workload, err)
		}
		printResult(os.Stdout, res)
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, res); err != nil {
				fatalf("%v", err)
			}
		}
		// The contract view is the last line of standard output.
		last, _ := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(last))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	set, err := runAll(&c, *runs)
	if err != nil {
		fatalf("%v", err)
	}
	printSet(os.Stdout, set)
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, set); err != nil {
			fatalf("%v", err)
		}
	}
	if !set.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// runWorkload dispatches one workload in this process.
func runWorkload(c *runConfig) (*result, error) {
	switch c.workload {
	case "train_amazon", "train_text8", "train_sharded":
		return runTrain(c)
	case "serve_single", "serve_batch", "serve_sampled":
		return runServe(c)
	case "replicate_follow":
		return runReplicate(c)
	}
	return nil, fmt.Errorf("unknown workload (have %v)", workloadNames)
}

// resultSet is what a run over all workloads produces and what -compare
// reads: per workload the runs made and, per metric, their median and
// quartiles.
type resultSet struct {
	Correct   bool                    `json:"correct"`
	Trace     bool                    `json:"trace"`
	Host      hostInfo                `json:"host"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

type workloadSet struct {
	Runs    []*result         `json:"runs"`
	Summary map[string]dist   `json:"summary"`
	Exact   map[string]string `json:"exact,omitempty"`
}

// runAll runs every workload runs times, each run in a re-exec'd child so
// set-up time and peak RSS are the workload's own and no heap carries over.
func runAll(c *runConfig, runs int) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return nil, err
	}
	set := &resultSet{Correct: true, Trace: c.trace, Host: fingerprint(), Workloads: map[string]*workloadSet{}}
	for _, name := range workloadNames {
		set.Workloads[name] = &workloadSet{Summary: map[string]dist{}}
	}
	// Runs outside, workloads inside: a workload's runs are then spread over
	// the whole session, so a stretch in which the box is slow or fast lands
	// on one run of each workload and not on every run of one.
	for r := 0; r < runs; r++ {
		for _, name := range workloadNames {
			out := filepath.Join(c.outDir, fmt.Sprintf("result_%s.json", name))
			cmd := exec.Command(self,
				"-workload", name, "-json", out,
				"-seed", fmt.Sprint(c.seed+uint64(r)), "-seconds", fmt.Sprint(c.seconds),
				"-procs", fmt.Sprint(c.procs), "-trace", fmt.Sprint(b2i(c.trace)))
			cmd.Stderr = os.Stderr
			// The child's own report goes to stderr; this process prints the
			// merged table.
			cmd.Stdout = os.Stderr
			runErr := cmd.Run()
			raw, err := os.ReadFile(out)
			if err != nil {
				return nil, fmt.Errorf("%s: no result (%v)", name, runErr)
			}
			var res result
			if err := json.Unmarshal(raw, &res); err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			os.Remove(out)
			ws := set.Workloads[name]
			ws.Runs = append(ws.Runs, &res)
			set.Correct = set.Correct && res.Correct && runErr == nil
		}
	}
	for _, ws := range set.Workloads {
		ws.summarize()
	}
	return set, nil
}

// summarize folds the runs into per-metric medians and quartiles across
// runs, which is what a bound is judged against. Seed-determined values are
// kept per seed.
func (ws *workloadSet) summarize() {
	vals := map[string][]float64{}
	ws.Exact = map[string]string{}
	for _, r := range ws.Runs {
		for name, m := range r.Metrics {
			vals[name] = append(vals[name], m.Value)
		}
		for k, v := range r.Exact {
			ws.Exact[fmt.Sprintf("%s@seed%d", k, r.Seed)] = v
		}
	}
	for name, xs := range vals {
		ws.Summary[name] = summarize(xs)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func metricOrder(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

func printResult(w *os.File, r *result) {
	fmt.Fprintf(w, "== %s  seed=%d seconds=%g procs=%d trace=%v kernel=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Procs, r.Trace, r.Host.KernelMode)
	for _, s := range metricOrder(r.Trace) {
		m := r.Metrics[s.Name]
		line := fmt.Sprintf("  %-44s %14.6g %-8s", s.Name, m.Value, m.Unit)
		if d, ok := r.Detail[s.Name]; ok {
			if d.Raw != 0 {
				line += fmt.Sprintf(" raw=%.6g", d.Raw)
			}
			if d.N > 1 {
				line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g", d.N, d.P25, d.P75)
			}
			if d.Calls > 0 {
				line += fmt.Sprintf(" calls=%d total=%.3gms", d.Calls, d.TotalMS)
			}
			if d.Bytes > 0 || d.Flops > 0 {
				line += fmt.Sprintf(" bytes/call=%.0f flops/call=%.0f (computed)", d.Bytes, d.Flops)
			}
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-44s %14.6g %-8s (%d failed / %d attempted)\n", "error_rate",
		float64(r.Failed)/float64(max(r.Attempted, 1)), "fraction", r.Failed, r.Attempted)
	if ref := r.Reference; ref.WindowSlices > 0 {
		fmt.Fprintf(w, "  reference: speed factor %.3f over the window's %d slices, %.3f over the set-up's %d (above 1: slower than nominal); timings are at nominal speed\n",
			ref.WindowFactor, ref.WindowSlices, ref.SetupFactor, ref.SetupSlices)
	}
	keys := make([]string, 0, len(r.Exact))
	for k := range r.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  exact %-38s %s\n", k, r.Exact[k])
	}
	for _, o := range r.Oracles {
		verdict := "ok"
		if !o.OK {
			verdict = "FAILED"
		}
		fmt.Fprintf(w, "  oracle %-37s %-6s %s\n", o.Name, verdict, o.Note)
	}
}

func printSet(w *os.File, set *resultSet) {
	for _, name := range workloadNames {
		ws := set.Workloads[name]
		var failed, attempted int64
		for _, r := range ws.Runs {
			failed += r.Failed
			attempted += r.Attempted
		}
		fmt.Fprintf(w, "== %s  runs=%d\n", name, len(ws.Runs))
		for _, s := range metricOrder(set.Trace) {
			d := ws.Summary[s.Name]
			line := fmt.Sprintf("  %-44s %14.6g %-8s", s.Name, d.P50, s.Unit)
			if d.N > 1 {
				line += fmt.Sprintf(" n=%d q1=%.6g q3=%.6g spread=%.1f%%", d.N, d.P25, d.P75, 100*d.spread())
			}
			fmt.Fprintln(w, line)
		}
		fmt.Fprintf(w, "  %-44s %14.6g %-8s (%d failed / %d attempted)\n", "error_rate",
			float64(failed)/float64(max(attempted, 1)), "fraction", failed, attempted)
	}
	verdict := "all oracles green"
	if !set.Correct {
		verdict = "INCORRECT: see the failed oracles above"
	}
	fmt.Fprintln(w, verdict)
}
