package experiments

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"m5/internal/tracker"
	"m5/internal/workload"
)

// tinyParams keeps every harness test in the hundreds of milliseconds.
func tinyParams(benches ...string) Params {
	return Params{
		Scale:      workload.ScaleTiny,
		Warmup:     60_000,
		Accesses:   240_000,
		Points:     3,
		Seed:       1,
		Benchmarks: benches,
	}
}

// renderRows serializes harness rows for byte-identity comparison; JSON
// (unlike %#v) dereferences the obs.Snapshot pointers Fig9 rows carry.
func renderRows(t *testing.T, rows any) string {
	t.Helper()
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRatioSummary(t *testing.T) {
	r := NewRatio([]float64{0.2, 0.4, 0.6})
	if math.Abs(r.Mean-0.4) > 1e-12 || r.Min != 0.2 || r.Max != 0.6 {
		t.Errorf("Ratio = %+v", r)
	}
	if NewRatio(nil) != (Ratio{}) {
		t.Error("empty samples should give zero ratio")
	}
	if !strings.Contains(r.String(), "0.400") {
		t.Errorf("String = %q", r.String())
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Accesses == 0 || p.Points == 0 || len(p.Benchmarks) != 12 {
		t.Errorf("defaults = %+v", p)
	}
	if DefaultParams().Scale != workload.ScaleMedium {
		t.Error("default scale")
	}
	if QuickParams().Scale != workload.ScaleTiny {
		t.Error("quick scale")
	}
}

func TestFig3ProducesBoundedRatios(t *testing.T) {
	rows, err := Fig3(tinyParams("roms", "redis"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		for _, r := range []Ratio{row.ANB, row.DAMON} {
			if r.Mean <= 0 || r.Mean > 1.0001 {
				t.Errorf("%s ratio out of range: %+v", row.Benchmark, r)
			}
			if r.Min > r.Mean || r.Max < r.Mean {
				t.Errorf("%s min/mean/max inconsistent: %+v", row.Benchmark, r)
			}
		}
	}
}

func TestFig3CPUDrivenIdentifiesWarmPages(t *testing.T) {
	// Observation 1: on a workload with a skewed hot set larger than the
	// trivially-findable few pages, the CPU-driven ratio sits clearly
	// below the ideal 1.0 (binary accessed-bit signals rank warm pages as
	// high as hot ones). liblinear is the discriminating instance at tiny
	// scale; roms' tiny hot set is findable by anything.
	rows, err := Fig3(tinyParams("lib."))
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ANB.Mean > 0.9 && rows[0].DAMON.Mean > 0.9 {
		t.Errorf("CPU-driven solutions look perfect on a skewed workload: %+v", rows[0])
	}
}

func TestFig4SparsityShape(t *testing.T) {
	rows, err := Fig4(tinyParams("redis", "cactu"))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig4Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		// CDF must be monotone in the thresholds.
		for i := 1; i < len(r.AtMost); i++ {
			if r.AtMost[i] < r.AtMost[i-1] {
				t.Errorf("%s: CDF not monotone: %v", r.Benchmark, r.AtMost)
			}
		}
	}
	// Figure 4 shape: Redis overwhelmingly sparse at <=16 words, cactu not.
	if byName["redis"].AtMost[2] < 0.6 {
		t.Errorf("redis P(<=16 words) = %v, want >= 0.6", byName["redis"].AtMost[2])
	}
	if byName["cactu"].AtMost[2] > byName["redis"].AtMost[2] {
		t.Error("cactu should be denser than redis")
	}
}

func TestSec42OverheadOrdering(t *testing.T) {
	rows, err := Sec42(tinyParams("redis"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.ANBKernelSharePct <= 0 || r.DAMONKernelSharePct <= 0 {
		t.Errorf("kernel shares should be positive: %+v", r)
	}
	// Observation 3: identification costs slow the application.
	if r.ANBSlowdownPct <= 0 && r.DAMONSlowdownPct <= 0 {
		t.Errorf("no slowdown measured: %+v", r)
	}
	// The KVS reports p99 movement.
	if r.DAMONP99IncreasePct == 0 && r.ANBP99IncreasePct == 0 {
		t.Error("p99 should move for the KVS workload")
	}
}

func TestFig7ShapeCMSketchScalesSSDoesNot(t *testing.T) {
	p := tinyParams("roms")
	p.Accesses = 300_000
	saved := Fig7Entries
	Fig7Entries = []int{50, 2048, 32768}
	defer func() { Fig7Entries = saved }()
	rows, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	get := func(alg tracker.Algorithm, n int) Fig7Row {
		for _, r := range rows {
			if r.Algorithm == alg && r.Entries == n {
				return r
			}
		}
		t.Fatalf("missing row %v/%d", alg, n)
		return Fig7Row{}
	}
	// Feasibility flags reproduce the synthesis limits.
	if get(tracker.SpaceSaving, 2048).FPGAFeasible {
		t.Error("SS 2K must not be FPGA-feasible")
	}
	if !get(tracker.SpaceSaving, 2048).ASICFeasible {
		t.Error("SS 2K must be ASIC-feasible")
	}
	if !get(tracker.CMSketch, 32768).FPGAFeasible {
		t.Error("CM 32K must be FPGA-feasible")
	}
	// Accuracy grows with N for CM-Sketch.
	if get(tracker.CMSketch, 32768).HPTRatio < get(tracker.CMSketch, 50).HPTRatio {
		t.Error("CM-Sketch accuracy should grow with N")
	}
	// The paper's punchline: CM-Sketch at its feasible N beats
	// Space-Saving at its FPGA-feasible N=50.
	if get(tracker.CMSketch, 32768).HPTRatio <= get(tracker.SpaceSaving, 50).HPTRatio*0.9 {
		t.Errorf("CM 32K (%.3f) should be at least comparable to SS 50 (%.3f)",
			get(tracker.CMSketch, 32768).HPTRatio, get(tracker.SpaceSaving, 50).HPTRatio)
	}
	// Ratios bounded.
	for _, r := range rows {
		if r.HPTRatio < 0 || r.HPTRatio > 1.5 || r.HWTRatio < 0 || r.HWTRatio > 1.5 {
			t.Errorf("ratio out of range: %+v", r)
		}
	}
}

func TestFig8M5BeatsCPUDriven(t *testing.T) {
	// liblinear is the discriminating workload at tiny scale: its skewed
	// weight pages separate count-based tracking (M5) from binary
	// accessed-bit aggregation (ANB/DAMON). On near-uniform workloads
	// (mcf) everything scores high, as the paper's Figure 3 exceptions
	// (cactuBSSN, fotonik3d, mcf) show.
	rows, err := Fig8(tinyParams("lib."))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.M5CM32K <= r.CPUBest {
		t.Errorf("M5 CM-Sketch (%.3f) should beat the best CPU-driven (%.3f, %s)",
			r.M5CM32K, r.CPUBest, r.BestCPUName)
	}
	if r.M5CM32K < r.M5SS50 {
		t.Errorf("CM-Sketch 32K (%.3f) should match or beat Space-Saving 50 (%.3f)",
			r.M5CM32K, r.M5SS50)
	}
	if r.M5CM32K <= 0 || r.M5SS50 <= 0 {
		t.Errorf("M5 ratios must be positive: %+v", r)
	}
}

func TestFig9MigrationHelpsSkewedWorkload(t *testing.T) {
	p := tinyParams("roms")
	p.Warmup = 300_000
	p.Accesses = 900_000
	rows, err := Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Norm[Fig9M5HPT] <= 1.0 {
		t.Errorf("M5(HPT) norm perf = %.3f, want > 1 on roms", r.Norm[Fig9M5HPT])
	}
	if r.Raw[Fig9M5HPT].Promotions == 0 {
		t.Error("M5 should migrate pages")
	}
	for _, cfg := range Fig9Configs() {
		if r.Norm[cfg] <= 0 {
			t.Errorf("%s: non-positive normalized perf", cfg)
		}
	}
}

func TestFig10SkewOrdering(t *testing.T) {
	rows, err := Fig10(tinyParams("roms", "pr"))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig10Row{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		for i := 1; i < len(r.CDF); i++ {
			if r.CDF[i] < r.CDF[i-1] {
				t.Errorf("%s CDF not monotone", r.Benchmark)
			}
		}
		if r.CDF[len(r.CDF)-1] < 0.999 {
			t.Errorf("%s CDF should reach 1, got %v", r.Benchmark, r.CDF[len(r.CDF)-1])
		}
	}
	// roms is the skew outlier: p99/p50 far above pr's.
	romsSkew := float64(byName["roms"].P99) / float64(maxU64(byName["roms"].P50, 1))
	prSkew := float64(byName["pr"].P99) / float64(maxU64(byName["pr"].P50, 1))
	if romsSkew <= prSkew {
		t.Errorf("roms skew %.1f should exceed pr skew %.1f", romsSkew, prSkew)
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestFig11GracefulDegradation(t *testing.T) {
	p := tinyParams("mcf")
	p.Accesses = 150_000
	saved := Fig11Processes
	Fig11Processes = []int{1, 4, 16}
	defer func() { Fig11Processes = saved }()
	rows, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Accuracy must not collapse: graceful degradation means the 16x run
	// retains a meaningful fraction of the 1x accuracy.
	if rows[0].Accuracy <= 0 {
		t.Fatal("1x accuracy should be positive")
	}
	if rows[2].Accuracy < 0.3*rows[0].Accuracy {
		t.Errorf("accuracy collapsed: 1x=%.3f 16x=%.3f", rows[0].Accuracy, rows[2].Accuracy)
	}
}

func TestInterleaveProcesses(t *testing.T) {
	accs, err := CollectCXLTrace(tinyParams("mcf"), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	out := InterleaveProcesses(accs[:10], 4)
	if len(out) != 40 {
		t.Fatalf("len = %d", len(out))
	}
	// Identity for one process.
	if len(InterleaveProcesses(accs[:10], 1)) != 10 {
		t.Error("procs=1 should be identity")
	}
	// Distinct processes occupy distinct 64GB windows.
	windows := map[uint64]bool{}
	for _, a := range out {
		windows[uint64(a.Addr)>>36] = true
	}
	if len(windows) != 4 {
		t.Errorf("windows = %d, want 4", len(windows))
	}
}

func TestTable4Headline(t *testing.T) {
	f := Table4Headline()
	if f.AreaRatio2K < 33 || f.AreaRatio2K > 34.5 {
		t.Errorf("area ratio = %v", f.AreaRatio2K)
	}
	if f.MaxCAMEntriesFPGA != 50 || f.MaxCAMEntriesASIC != 2048 || f.MaxSRAMEntries != 131072 {
		t.Errorf("limits = %+v", f)
	}
	if len(Table4()) != 8 {
		t.Error("Table4 rows")
	}
}

func TestSec52BandwidthProportionality(t *testing.T) {
	p := tinyParams()
	p.Accesses = 400_000
	rows, err := Sec52(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// The bandwidth ratio must track the page ratio within ~40%
		// (the paper sees 2→2.02, 1→0.92, 0.5→0.57).
		lo, hi := r.PageRatio*0.6, r.PageRatio*1.5
		if r.BWRatio < lo || r.BWRatio > hi {
			t.Errorf("page ratio %v: bw ratio %v outside [%v, %v]",
				r.PageRatio, r.BWRatio, lo, hi)
		}
	}
	// Monotone: more DDR pages, more DDR bandwidth.
	if !(rows[0].BWRatio > rows[1].BWRatio && rows[1].BWRatio > rows[2].BWRatio) {
		t.Errorf("bw ratios not monotone: %+v", rows)
	}
}

func TestAblationQueryInterval(t *testing.T) {
	p := tinyParams("roms")
	rows, err := AblationQueryInterval(p, []uint64{100_000, 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Accuracy <= 0 {
			t.Errorf("accuracy must be positive: %+v", r)
		}
	}
}

func TestAblationConservativeUpdate(t *testing.T) {
	p := tinyParams("mcf")
	rows, err := AblationConservativeUpdate(p, []int{512})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Conservative update never hurts CM-Sketch accuracy materially.
	if r.Conserved < r.Plain*0.9 {
		t.Errorf("conservative update much worse: plain=%.3f cons=%.3f", r.Plain, r.Conserved)
	}
}

func TestAblationFscale(t *testing.T) {
	p := tinyParams("roms")
	p.Accesses = 300_000
	rows, err := AblationFscale(p, []float64{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormPerf <= 0 {
			t.Errorf("norm perf must be positive: %+v", r)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{Title: "demo", Header: []string{"name", "value"}}
	tbl.Add("x", 1.25)
	tbl.Add("longer-name", 42)
	out := tbl.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "1.250") ||
		!strings.Contains(out, "longer-name") {
		t.Errorf("render:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, sep, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestExtIFMMSynergy(t *testing.T) {
	p := tinyParams("redis", "roms")
	p.Warmup = 300_000
	p.Accesses = 900_000
	rows, err := ExtIFMM(p)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ExtIFMMRow{}
	for _, r := range rows {
		byName[r.Benchmark] = r
		if r.IFMM <= 0 || r.M5HPT <= 0 || r.Combined <= 0 {
			t.Errorf("non-positive norm perf: %+v", r)
		}
	}
	// The §9 split: word swapping wins on the sparse KVS (no 4KB copies
	// for pages with a handful of hot words)...
	if r := byName["redis"]; r.IFMM <= 1.0 {
		t.Errorf("IFMM throughput norm = %.3f on redis, want > 1", r.IFMM)
	}
	// ...while page migration wins on the dense, swept workload, where
	// capacity-limited word swapping churns.
	if r := byName["roms"]; r.M5HPT <= r.IFMM {
		t.Errorf("roms: M5 (%.3f) should beat IFMM (%.3f)", r.M5HPT, r.IFMM)
	}
}

func TestExtContention(t *testing.T) {
	p := tinyParams()
	p.Accesses = 400_000
	rows, err := ExtContention(p, "mcf", []int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputNone <= 0 || r.ThroughputM5 <= 0 || r.Speedup <= 0 {
			t.Errorf("non-positive metrics: %+v", r)
		}
	}
	// M5's relative benefit should not shrink under contention: with the
	// CXL channel shared by 4 cores, moving hot pages off it pays at
	// least as much as in the single-instance run.
	if rows[1].Speedup < rows[0].Speedup*0.8 {
		t.Errorf("contention speedups: x1=%.3f x4=%.3f", rows[0].Speedup, rows[1].Speedup)
	}
}

func TestExtPEBS(t *testing.T) {
	p := tinyParams("roms")
	p.Warmup = 200_000
	p.Accesses = 600_000
	rows, err := ExtPEBS(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PEBSCoarse <= 0 || r.PEBSFine <= 0 || r.M5HPT <= 0 {
		t.Fatalf("non-positive norm perf: %+v", r)
	}
	// M5 should match or beat the sampler (it sees every access, the
	// sampler sees 1 in 100/1000).
	if r.M5HPT < r.PEBSCoarse*0.9 && r.M5HPT < r.PEBSFine*0.9 {
		t.Errorf("M5 (%.3f) should be competitive with PEBS (%.3f / %.3f)",
			r.M5HPT, r.PEBSCoarse, r.PEBSFine)
	}
}

func TestExtPolicies(t *testing.T) {
	p := tinyParams("roms")
	p.Warmup = 200_000
	p.Accesses = 600_000
	rows, err := ExtPolicies(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	for name, v := range map[string]float64{
		"elector": r.Elector, "static": r.Static,
		"threshold": r.Threshold, "density": r.Density,
	} {
		if v <= 0 {
			t.Errorf("%s: non-positive norm perf %v", name, v)
		}
	}
	// On a skewed workload every policy should help.
	if r.Elector <= 1.0 {
		t.Errorf("elector norm perf = %.3f, want > 1 on roms", r.Elector)
	}
}

func TestSec42M5CostIsTiny(t *testing.T) {
	// The §4.2/§7.2 selling point: M5's identification cost is a rounding
	// error next to the CPU-driven solutions'.
	rows, err := Sec42(tinyParams("redis"))
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.M5KernelSharePct >= r.ANBKernelSharePct {
		t.Errorf("M5 kernel share %.3f%% should be far below ANB's %.3f%%",
			r.M5KernelSharePct, r.ANBKernelSharePct)
	}
	if r.M5KernelSharePct > 1.0 {
		t.Errorf("M5 kernel share %.3f%% should be under 1%%", r.M5KernelSharePct)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tbl := Table{Header: []string{"a", "b"}}
	tbl.Add("x,with,commas", 1.5)
	var buf strings.Builder
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "a,b\n") || !strings.Contains(got, `"x,with,commas",1.500`) {
		t.Errorf("CSV:\n%s", got)
	}
}

func TestExtHuge(t *testing.T) {
	// redis at small scale has a >1-huge-page footprint; its sparse pages
	// make 2MB-granularity migration waste DDR budget relative to 4KB.
	p := Params{
		Scale:      workload.ScaleSmall,
		Warmup:     200_000,
		Accesses:   600_000,
		Points:     3,
		Seed:       1,
		Benchmarks: []string{"redis"},
	}
	rows, err := ExtHuge(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Base4K <= 0 || r.Huge2M <= 0 {
		t.Fatalf("non-positive norm perf: %+v", r)
	}
}

func TestExtPhaseChange(t *testing.T) {
	p := tinyParams()
	p.Warmup = 150_000
	p.Accesses = 600_000
	points, err := ExtPhaseChange(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4*4 {
		t.Fatalf("points = %d", len(points))
	}
	sums := SummarizePhase(points)
	byName := map[string]PhaseSummary{}
	for _, s := range sums {
		byName[s.Policy] = s
		if s.LateCXLShare < 0 || s.LateCXLShare > 1 {
			t.Errorf("%s: share out of range %v", s.Policy, s.LateCXLShare)
		}
	}
	// Without migration everything stays on CXL.
	if byName["none"].LateCXLShare < 0.999 {
		t.Errorf("none share = %v, want 1", byName["none"].LateCXLShare)
	}
	// M5 must track the drifting hot set: clearly below the no-migration
	// share, and still promoting in late windows.
	m5s := byName["m5-hpt"]
	if m5s.LateCXLShare >= 0.95 {
		t.Errorf("m5 late share = %v, want < 0.95", m5s.LateCXLShare)
	}
	if !m5s.KeptPromoting {
		t.Error("m5 should keep promoting as the hot set drifts")
	}
}

func TestHarnessDeterminism(t *testing.T) {
	// Two invocations with identical Params must produce byte-identical
	// results — the repository's determinism guarantee applied to a full
	// harness (workload synthesis, simulation, daemon scheduling, ratio
	// sampling).
	p := tinyParams("roms")
	a, err := Fig3(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig3(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("row counts differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAblationDecay(t *testing.T) {
	p := tinyParams("roms")
	rows, err := AblationDecay(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.Reset <= 0 || r.Decay <= 0 {
		t.Errorf("non-positive accuracy: %+v", r)
	}
	// On a stable hot set, decay's momentum must not hurt badly.
	if r.Decay < r.Reset*0.7 {
		t.Errorf("decay %.3f much worse than reset %.3f on a stable workload", r.Decay, r.Reset)
	}
}
