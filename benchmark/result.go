package main

import (
	"fmt"
	"math"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDetail is what stands behind one reported value: how many
// measurements, their quartiles, and for per-layer probes the call count,
// total time and the computed (not measured) bytes and flops per call.
type metricDetail struct {
	// Raw is an end-to-end timing as the clock gave it, before the
	// correction to nominal speed (reference.go).
	Raw     float64 `json:"raw,omitempty"`
	N       int     `json:"n,omitempty"`
	P25     float64 `json:"p25,omitempty"`
	P75     float64 `json:"p75,omitempty"`
	Calls   int64   `json:"calls,omitempty"`
	TotalMS float64 `json:"total_ms,omitempty"`
	Bytes   float64 `json:"bytes_per_call,omitempty"`
	Flops   float64 `json:"flops_per_call,omitempty"`
}

type oracle struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Note string `json:"note,omitempty"`
}

// result is one run of one workload. The last line of standard output is
// its contract view (correct, attempted, failed, metrics); -json writes all
// of it.
type result struct {
	Workload  string                  `json:"workload"`
	Seed      uint64                  `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Procs     int                     `json:"procs"`
	Trace     bool                    `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]metricValue  `json:"metrics"`
	Detail    map[string]metricDetail `json:"detail,omitempty"`
	// Exact holds values fixed by the seed alone (checkpoint hash at a fixed
	// step, delta bytes over a fixed step range): two runs of one commit
	// must agree on them to the byte.
	Exact map[string]string `json:"exact,omitempty"`
	// Counts holds how much work the timed window did; the window is bounded
	// by time, so these vary between runs.
	Counts  map[string]int64 `json:"counts,omitempty"`
	Oracles []oracle         `json:"oracles"`
	// Reference is the run's speed yardstick: how many reference slices the
	// measured window and the set-up carried, and the factor each was
	// corrected by (above 1: the box ran slower than nominal).
	Reference struct {
		WindowSlices int     `json:"window_slices"`
		WindowFactor float64 `json:"window_factor"`
		SetupSlices  int     `json:"setup_slices"`
		SetupFactor  float64 `json:"setup_factor"`
	} `json:"reference"`
	Host hostInfo `json:"host"`
}

func newResult(c *runConfig) *result {
	return &result{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Procs: c.procs, Trace: c.trace,
		Metrics: map[string]metricValue{}, Detail: map[string]metricDetail{},
		Exact: map[string]string{}, Counts: map[string]int64{},
		Host: fingerprint(),
	}
}

// set records a metric declared in spec.go; an undeclared name is a bug in
// the benchmark and panics.
func (r *result) set(name string, v float64) {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	}
	unit, ok := unitOf(specs, name)
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared for trace=%v", name, r.Trace))
	}
	r.Metrics[name] = metricValue{Value: v, Unit: unit}
}

func (r *result) setDist(name string, d dist) {
	r.set(name, d.P50)
	r.Detail[name] = metricDetail{N: d.N, P25: d.P25, P75: d.P75}
}

// setRate records a rate (work per second) at nominal speed: the measured
// median times the window's speed factor, with the raw figures in the
// detail.
func (r *result) setRate(name string, d dist) {
	r.set(name, d.P50*r.Reference.WindowFactor)
	r.Detail[name] = metricDetail{Raw: d.P50, N: d.N, P25: d.P25, P75: d.P75}
}

// setTime records a duration at nominal speed: the measured value over the
// given speed factor.
func (r *result) setTime(name string, raw, factor float64) {
	r.set(name, raw/factor)
	r.Detail[name] = metricDetail{Raw: raw}
}

// setup records the median set-up time and the factor it is corrected by.
func (r *result) setup(secs float64, ref *reference) {
	r.Reference.SetupSlices = len(ref.secs)
	r.Reference.SetupFactor = ref.factor(0)
	r.setTime("setup_s", secs, r.Reference.SetupFactor)
}

// window fixes the measured window's speed factor from the slices run since
// setup was called; setRate and the window's setTime calls come after it.
func (r *result) window(ref *reference) {
	r.Reference.WindowSlices = len(ref.secs) - r.Reference.SetupSlices
	r.Reference.WindowFactor = ref.factor(r.Reference.SetupSlices)
}

// check records a correctness oracle; any failed oracle makes the run
// incorrect.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.Oracles = append(r.Oracles, oracle{Name: name, OK: ok, Note: fmt.Sprintf(format, args...)})
}

// finish fills what every run reports and decides correctness: all oracles
// green, no failed operation, every declared metric present and finite (and,
// end to end, non-zero).
func (r *result) finish() {
	specs := endToEnd
	if r.Trace {
		specs = perLayer
	} else {
		r.set("peak_rss_mb", peakRSSMiB())
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	for _, o := range r.Oracles {
		r.Correct = r.Correct && o.OK
	}
	for _, s := range specs {
		m, ok := r.Metrics[s.Name]
		if !ok {
			if !r.Trace {
				r.check("metric:"+s.Name, false, "not reported")
				r.Correct = false
			}
			// A layer this workload does not exercise reports 0.
			r.Metrics[s.Name] = metricValue{Unit: s.Unit}
			continue
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!r.Trace && m.Value == 0) {
			r.check("metric:"+s.Name, false, "value %v", m.Value)
			r.Correct = false
		}
	}
}
