package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// runCompare prints one row per workload and end-to-end metric for two
// result files of `-runs N -json`, judged by the bounds in the benchmark
// definition, and returns the process exit code: 1 when B is worse than A
// anywhere, fails more operations, or disagrees on a seed-determined value.
// Medians and quartiles are across runs, so both files need at least two
// runs per workload.
//
//	better / worse   B's median differs from A's by more than the bound
//	same             within the bound
//	unresolved       either side's quartile spread across runs exceeds the
//	                 bound, so the difference cannot be told from noise
func runCompare(specPath, aPath, bPath string) int {
	spec, err := readBenchmarkFile(specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 2
	}
	a, errA := readSet(aPath)
	b, errB := readSet(bPath)
	if errA != nil || errB != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v %v\n", errA, errB)
		return 2
	}
	exit := 0
	fmt.Printf("%-17s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, name := range workloadNames {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wa == nil || wb == nil {
			fmt.Printf("%-17s missing from one file\n", name)
			exit = 1
			continue
		}
		if len(wa.Runs) < 2 || len(wb.Runs) < 2 {
			fmt.Fprintf(os.Stderr, "benchmark: %s has %d and %d runs; -compare needs files made with -runs 2 or more\n", name, len(wa.Runs), len(wb.Runs))
			return 2
		}
		for _, m := range spec.EndToEnd {
			da, db := wa.Summary[m.Name], wb.Summary[m.Name]
			change := 0.0
			if da.P50 != 0 {
				change = (db.P50 - da.P50) / da.P50
			}
			gain := change // positive = B better
			if m.Better == "lower" {
				gain = -change
			}
			verdict := "same"
			switch {
			case da.spread() > m.Bound || db.spread() > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread A %.1f%% B %.1f%%)", 100*da.spread(), 100*db.spread())
			case gain < -m.Bound:
				verdict = "worse"
				exit = 1
			case gain > m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-17s %-16s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n", name, m.Name, da.P50, db.P50, 100*change, 100*m.Bound, verdict)
		}
		ea, eb := errorRate(wa), errorRate(wb)
		verdict := "same"
		if eb > ea {
			verdict = "worse"
			exit = 1
		}
		fmt.Printf("%-17s %-16s %14.6g %14.6g %8s %7s  %s\n", name, "error_rate", ea, eb, "", "0", verdict)
		keys := make([]string, 0, len(wa.Exact))
		for k := range wa.Exact {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			vb, ok := wb.Exact[k]
			if !ok {
				continue // B ran other seeds
			}
			verdict := "equal"
			if vb != wa.Exact[k] {
				verdict = fmt.Sprintf("DIFFERS: %s vs %s", wa.Exact[k], vb)
				exit = 1
			}
			fmt.Printf("%-17s exact %-40s %s\n", name, k, verdict)
		}
	}
	return exit
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: no workloads (a file written by -json without -workload is needed)", path)
	}
	return &s, nil
}

func errorRate(ws *workloadSet) float64 {
	var failed, attempted int64
	for _, r := range ws.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return float64(failed) / float64(max(attempted, 1))
}
