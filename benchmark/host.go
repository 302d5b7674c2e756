package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"syscall"

	"github.com/slide-cpu/slide/internal/cpufeat"
	"github.com/slide-cpu/slide/internal/platform"
	"github.com/slide-cpu/slide/internal/simd"
)

// hostInfo is the fingerprint every result carries, so a number is never
// compared across machines, kernel tiers or thread counts by accident.
type hostInfo struct {
	Platform      platform.Platform `json:"platform"`
	CPUFeatures   string            `json:"cpu_features"`
	KernelMode    string            `json:"kernel_mode"`
	KernelModeEnv string            `json:"slide_kernel_mode_env"`
	GOMAXPROCS    int               `json:"gomaxprocs"`
	NumCPU        int               `json:"nproc"`
	GoVersion     string            `json:"go_version"`
	GitCommit     string            `json:"git_commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{
		Platform:      platform.Host(),
		CPUFeatures:   cpufeat.Detect().String(),
		KernelMode:    simd.CurrentMode().String(),
		KernelModeEnv: os.Getenv("SLIDE_KERNEL_MODE"),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		GitCommit:     "unknown", // a checkout that is not a git repository has none
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	return h
}

// peakRSSMiB is the process's high-water resident set; each workload runs
// in its own process, so the figure is per workload.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
