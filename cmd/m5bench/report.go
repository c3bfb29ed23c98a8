package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"m5/internal/obs"
)

// benchReport is the machine-readable run record written by -json: one
// entry per harness with its wall time and headline metrics, plus enough
// host/parameter context to compare runs across machines and settings
// (host_cores matters: the parallel speedup is bounded by it).
type benchReport struct {
	GeneratedAt string          `json:"generated_at"`
	GoVersion   string          `json:"go_version"`
	HostCores   int             `json:"host_cores"`
	Parallel    int             `json:"parallel"`
	Scale       string          `json:"scale"`
	Accesses    int             `json:"accesses"`
	Warmup      int             `json:"warmup"`
	Seed        int64           `json:"seed"`
	Harnesses   []harnessReport `json:"harnesses"`
	// Tape is the shared tape pool's own observability snapshot (tape.*
	// counters: bytes, hits, misses, evictions, live_tails). It sits at the
	// report top level because the pool is shared across harnesses, not
	// owned by any one of them.
	Tape             *obs.Snapshot `json:"tape,omitempty"`
	TotalWallSeconds float64       `json:"total_wall_seconds"`
}

type harnessReport struct {
	Name        string             `json:"name"`
	WallSeconds float64            `json:"wall_seconds"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Obs is the harness's merged per-layer observability snapshot
	// (cache, DRAM channels, CXL, mm, policy). Cells own private
	// registries merged in submission order, so the bytes are identical
	// at any -parallel setting.
	Obs *obs.Snapshot `json:"obs,omitempty"`
}

// report is non-nil when -json is set; timed() appends one harness entry
// per run with the headline metrics and obs snapshot its registry Result
// carries.
var report *benchReport

func newReport(scale string, parallel, accesses, warmup int, seed int64) *benchReport {
	return &benchReport{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		HostCores:   runtime.NumCPU(),
		Parallel:    parallel,
		Scale:       scale,
		Accesses:    accesses,
		Warmup:      warmup,
		Seed:        seed,
	}
}

// measured collects every harness's name and wall time this run,
// independent of -json, so -baseline comparison works on its own.
var measured []harnessReport

// regressionTolerance is how much slower than the baseline a harness may
// run before -check fails the process: wall clocks jitter with host load,
// so the gate trips only on a clear (>20%) slowdown.
const regressionTolerance = 0.20

func loadBaseline(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Harnesses) == 0 {
		return nil, fmt.Errorf("%s: no harness entries", path)
	}
	return &r, nil
}

// compareBaseline prints this run's per-harness wall clock against a prior
// -json report and returns whether any harness regressed beyond the
// tolerance. Harnesses missing from the baseline are informational only.
func compareBaseline(w io.Writer, base *benchReport, run []harnessReport) bool {
	prior := make(map[string]float64, len(base.Harnesses))
	for _, h := range base.Harnesses {
		prior[h.Name] = h.WallSeconds
	}
	fmt.Fprintf(w, "wall clock vs baseline (recorded on %d cores, scale=%s, accesses=%d, warmup=%d, seed=%d):\n",
		base.HostCores, base.Scale, base.Accesses, base.Warmup, base.Seed)
	regressed := false
	for _, h := range run {
		b, ok := prior[h.Name]
		if !ok || b == 0 {
			fmt.Fprintf(w, "  %-16s %8.2fs  (no baseline entry)\n", h.Name, h.WallSeconds)
			continue
		}
		mark := ""
		if h.WallSeconds > b*(1+regressionTolerance) {
			regressed = true
			mark = "  REGRESSION"
		}
		fmt.Fprintf(w, "  %-16s %8.2fs  baseline %8.2fs  %+6.1f%%  (%.2fx)%s\n",
			h.Name, h.WallSeconds, b, (h.WallSeconds-b)/b*100, b/h.WallSeconds, mark)
	}
	return regressed
}

func writeReport(path string) error {
	for _, h := range report.Harnesses {
		report.TotalWallSeconds += h.WallSeconds
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
