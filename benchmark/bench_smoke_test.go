package main

import (
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json and spec.go from
// drifting: its workloads are workloads of spec.go in spec.go's order (the
// file lists the ones the driver gates, the program runs two more), the
// metrics and units are the same in the same order, and all names are within
// the definition's naming rules.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) < 2 || len(bf.Workloads) > 8 {
		t.Fatalf("%d workloads in BENCHMARK.json, want 2 to 8", len(bf.Workloads))
	}
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	next := 0 // workloads of spec.go before this index are used up
	for _, w := range bf.Workloads {
		name(w.Name)
		for next < len(workloadNames) && workloadNames[next] != w.Name {
			next++
		}
		if next == len(workloadNames) {
			t.Errorf("workload %q of BENCHMARK.json is not in spec.go, or out of its order", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in spec.go", len(bf.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].Name || m.Unit != endToEnd[i].Unit {
			t.Errorf("end-to-end %d: %s [%s] in BENCHMARK.json, %s [%s] in spec.go", i, m.Name, m.Unit, endToEnd[i].Name, endToEnd[i].Unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s [s, lower] is required")
	}
	if len(bf.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in spec.go (at most 128)", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].Name || m.Unit != perLayer[i].Unit {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in spec.go", i, m.Name, m.Unit, perLayer[i].Name, perLayer[i].Unit)
		}
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny scale and
// checks that each run is correct and reports exactly the declared metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end: trains, serves over loopback and replicates")
	}
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			c := &runConfig{workload: w, seed: 7, seconds: 0.4, trace: trace,
				procs: min(runtime.GOMAXPROCS(0), 2), outDir: out, smoke: true}
			res, err := runWorkload(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d oracles=%+v", w, trace, res.Correct, res.Failed, res.Attempted, res.Oracles)
			}
			specs := metricOrder(trace)
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or unit %q", w, trace, s.Name, s.Unit, m.Unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, s.Name)
				}
			}
			if !trace {
				// Timings are reported at nominal speed: raw times (rates) or
				// over (durations) the factor of the run's reference slices.
				ref := res.Reference
				if ref.WindowSlices < 1 || ref.SetupSlices < refSetupSlices || !(ref.WindowFactor > 0) || !(ref.SetupFactor > 0) {
					t.Errorf("%s: reference %+v", w, ref)
				}
				for name, want := range map[string]float64{
					"throughput":     res.Detail["throughput"].Raw * ref.WindowFactor,
					"latency_p50_ms": res.Detail["latency_p50_ms"].Raw / ref.WindowFactor,
					"setup_s":        res.Detail["setup_s"].Raw / ref.SetupFactor,
				} {
					if got := res.Metrics[name].Value; got != want {
						t.Errorf("%s: %s is %v, raw figure corrected is %v", w, name, got, want)
					}
				}
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, "trace_"+w+".json")); err != nil {
					t.Errorf("%s: no span file: %v", w, err)
				}
			}
		}
	}
}

// TestCompare checks the verdicts of -compare on small result files of two
// runs per workload.
func TestCompare(t *testing.T) {
	spec := filepath.Join("..", "BENCHMARK.json")
	set := func(runs int, throughput [2]float64, rss float64, failed int64, sha string) *resultSet {
		s := &resultSet{Correct: true, Workloads: map[string]*workloadSet{}}
		for _, w := range workloadNames {
			ws := &workloadSet{Summary: map[string]dist{}}
			for i := 0; i < runs; i++ {
				r := &result{Workload: w, Seed: uint64(i), Correct: true, Attempted: 100, Failed: failed,
					Metrics: map[string]metricValue{}, Exact: map[string]string{"weights_sha256": sha}}
				for _, m := range endToEnd {
					r.Metrics[m.Name] = metricValue{Value: 1, Unit: m.Unit}
				}
				r.Metrics["throughput"] = metricValue{Value: throughput[i], Unit: "1/s"}
				r.Metrics["peak_rss_mb"] = metricValue{Value: rss, Unit: "MiB"}
				ws.Runs = append(ws.Runs, r)
			}
			ws.summarize()
			s.Workloads[w] = ws
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *resultSet) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", set(2, [2]float64{1000, 1000}, 100, 0, "abc"))
	for _, tc := range []struct {
		name string
		b    *resultSet
		exit int
	}{
		{"same", set(2, [2]float64{1010, 1012}, 101, 0, "abc"), 0},
		{"faster is not worse", set(2, [2]float64{2000, 2000}, 100, 0, "abc"), 0},
		{"slower beyond the bound", set(2, [2]float64{500, 500}, 100, 0, "abc"), 1},
		{"spread beyond the bound is unresolved, not worse", set(2, [2]float64{300, 700}, 100, 0, "abc"), 0},
		{"more memory beyond the bound", set(2, [2]float64{1000, 1000}, 200, 0, "abc"), 1},
		{"more failures", set(2, [2]float64{1000, 1000}, 100, 1, "abc"), 1},
		{"seed-determined value differs", set(2, [2]float64{1000, 1000}, 100, 0, "abd"), 1},
		{"one run has no spread to judge by", set(1, [2]float64{1000}, 100, 0, "abc"), 2},
	} {
		if got := runCompare(spec, base, write("b.json", tc.b)); got != tc.exit {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.exit)
		}
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(xs, n=4),
// which is how the benchmark's driver computes a spread.
func TestQuartilesMatchPython(t *testing.T) {
	d := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.N != 10 || d.P25 != 2.75 || d.P50 != 5.5 || d.P75 != 8.25 {
		t.Errorf("quartiles of 1..10: %+v, want 2.75 5.5 8.25", d)
	}
	if d := summarize([]float64{3, 1, 2}); d.P25 != 1 || d.P50 != 2 || d.P75 != 3 {
		t.Errorf("quartiles of 1..3: %+v, want 1 2 3", d)
	}
}
