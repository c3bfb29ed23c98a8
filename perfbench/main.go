// Command perfbench is the repository benchmark. One invocation runs one
// named workload at one seed for a fixed number of seconds and prints
// every metric by name, unit and sample count, then a one-line JSON
// result:
//
//	go run . -workload fullsys -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics a user of m5bench or
// m5serve sees. With -trace 1 it runs the same work with spans recorded
// around every call it makes into a layer, replays the workload's
// recorded streams through each layer's public functions, and reports
// per-layer metrics plus a ledger reconciling them with the wall clock.
// Every simulated output is checked: against the committed reference in
// ref/ at the default seed, and at any seed against repeats of the same
// operation (and the served rows against cold harness runs).
//
// The benchmark calls only public entry points (experiments.RunHarness,
// the serve HTTP handler, and each layer's exported functions) and sets
// no speed knob, so it measures what a default run gets.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// gcPercent mirrors m5bench and m5serve, which raise the GC target in
// main because the tape pool and checkpoint tree live for the process.
const gcPercent = 400

// setupReps is how many times a run builds its set-up; setup_s is the
// median.
const setupReps = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its constructor, which takes the
// seed and the reference directory.
var workloads = map[string]func(seed int64, refDir string) benchWorkload{
	"fullsys":         newFullsys,
	"tracker-sweep":   newTrackerSweep,
	"serve-mix":       newServeMix,
	"fullsys-sampled": newFullsysSampled,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runContext is recorded in every output so a number can be traced back
// to the host and build that produced it.
type runContext struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       int    `json:"gogc"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seconds    int    `json:"seconds"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed (the committed reference is at the default)")
	seconds := fs.Int("seconds", 20, "seconds of timed passes")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	refDir := fs.String("ref", "perfbench/ref", "directory of committed reference outputs")
	outDir := fs.String("out", ".bench_build/spans", "directory the span file is written to")
	commit := fs.String("commit", "unknown", "commit of the code under test, recorded in the output")
	update := fs.Bool("write-ref", false, "regenerate the workload's committed reference at the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	debug.SetGCPercent(gcPercent)
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	ctx := runContext{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gcPercent,
		NumCPU: runtime.NumCPU(), Commit: *commit, Seed: *seed, Workload: *name,
		Trace: *traceFlag == 1, Seconds: *seconds,
	}
	if *update {
		if err := writeRef(*name, mk, *refDir); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	res, spans, err := measure(ctx, mk, *refDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if ctx.Trace {
		if err := writeSpans(*outDir, ctx, spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// workload is one named input set. A fresh value is built per set-up.
type benchWorkload interface {
	// setUp does everything before the first timed operation.
	setUp() error
	// pass runs the workload's fixed operation set once, recording every
	// output with chk and spans with tr (nil when untraced).
	pass(tr *tracer, op int, chk *checker) (passStats, error)
	// minPasses is the fewest passes a run makes, however long they take.
	minPasses(traced bool) int
	// prepare runs before each pass, outside its timing (serve-mix starts
	// a new epoch of its plan there).
	prepare(chk *checker) error
	// finish runs the end-of-run checks (plan totals, cold re-runs).
	finish(chk *checker) error
	// layers measures the per-layer metrics from the traced passes and
	// the layer replays (traced runs only).
	layers(tr *tracer, passes []passStats, chk *checker, m map[string]metric) error
	close()
}

// passStats is what one pass reports.
type passStats struct {
	seconds float64
	// cpuSeconds is the process's user plus system CPU time over the pass.
	cpuSeconds float64
	// accesses is the count of simulated workload accesses the pass
	// stands for, and accSeconds the host CPU seconds of the operations
	// that count them (maccess_per_s is their ratio).
	accesses   float64
	accSeconds float64
	// outputs holds each operation's marshalled output, so the traced
	// pass can be compared with the untraced one byte for byte.
	outputs map[string][]byte
	// counts holds the program's own counters read after the pass.
	counts map[string]float64
	// latencies holds client-side query latencies by class, and
	// httpSeconds each query's latency minus the server's seconds in its
	// harness call (serve-mix).
	latencies   map[string][]float64
	httpSeconds []float64
}

// measure sets the workload up setupReps times, then runs timed passes
// for the requested seconds (alternating untraced and traced passes in a
// traced run), then the end-of-run checks and, when traced, the layer
// replays.
func measure(ctx runContext, mk func(int64, string) benchWorkload, refDir string, stdout io.Writer) (result, []span, error) {
	var ref map[string][]byte
	if ctx.Seed == defaultSeed {
		var err error
		if ref, err = loadReference(refDir, ctx.Workload); err != nil {
			return result{}, nil, fmt.Errorf("loading the reference: %w", err)
		}
	}
	chk := newChecker(ref)
	var tr *tracer
	if ctx.Trace {
		tr = newTracer()
	}

	cal, err := newCalibrator()
	if err != nil {
		return result{}, nil, fmt.Errorf("calibration: %w", err)
	}
	defer cal.close()

	var setups, setupWalls []float64
	var w benchWorkload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			// Release the discarded set-up before building the next, so
			// peak_rss_mib reflects one set-up, as m5bench and m5serve
			// build theirs once.
			w.close()
			runtime.GC()
		}
		cal.sample()
		w = mk(ctx.Seed, refDir)
		id := tr.begin("setup", 0, 0)
		t0, cpu0 := time.Now(), cpuSeconds()
		if err := w.setUp(); err != nil {
			w.close()
			return result{}, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, cpuSeconds()-cpu0)
		setupWalls = append(setupWalls, time.Since(t0).Seconds())
		tr.end(id)
	}
	defer w.close()

	var plain, traced []passStats
	deadline := time.Now().Add(time.Duration(ctx.Seconds) * time.Second)
	for op := 1; len(plain)+len(traced) < w.minPasses(ctx.Trace) || time.Now().Before(deadline); op++ {
		withTrace := ctx.Trace && len(plain) > len(traced)
		var t *tracer
		if withTrace {
			t = tr
		}
		if err := w.prepare(chk); err != nil {
			return result{}, nil, err
		}
		// Start every pass from a collected heap, so the GC cycles a pass
		// pays for and the memory peak it reaches do not depend on where
		// the previous pass left the collector.
		runtime.GC()
		if cal.due() {
			cal.sample()
		}
		cpu0 := cpuSeconds()
		ps, err := w.pass(t, op, chk)
		ps.cpuSeconds = cpuSeconds() - cpu0
		if err != nil {
			return result{}, nil, err
		}
		if withTrace {
			traced = append(traced, ps)
		} else {
			plain = append(plain, ps)
		}
	}
	cal.sample()
	untraced := map[string][]byte{}
	for _, p := range plain {
		for k, out := range p.outputs {
			untraced[k] = out
		}
	}
	for _, p := range traced {
		for k, out := range p.outputs {
			if want, ok := untraced[k]; ok && !bytes.Equal(out, want) {
				chk.fail(fmt.Sprintf("%s: traced output differs from the untraced output", k))
			}
		}
	}
	if err := w.finish(chk); err != nil {
		return result{}, nil, err
	}

	m := map[string]metric{}
	if !ctx.Trace {
		var walls, rates, cpus []float64
		for _, p := range plain {
			walls = append(walls, p.seconds)
			cpus = append(cpus, p.cpuSeconds)
			if p.accSeconds > 0 {
				rates = append(rates, p.accesses/p.accSeconds/1e6)
			}
		}
		// The gated times are stated at the reference host speed; the
		// measured CPU times and the calibration are printed beside them.
		k := cal.toRef()
		m["setup_s"] = metric{median(setups) * k, "s"}
		m["cpu_s"] = metric{median(cpus) * k, "s"}
		m["maccess_per_s"] = metric{median(rates) / k, "Maccess/s"}
		rss := peakRSSMiB()
		m["peak_rss_mib"] = metric{rss, "MiB"}
		printSeries(stdout, "setup_s", "s", scaled(setups, k))
		printSeries(stdout, "cpu_s", "s", scaled(cpus, k))
		printSeries(stdout, "maccess_per_s", "Maccess/s", scaled(rates, 1/k))
		printSeries(stdout, "peak_rss_mib", "MiB", []float64{rss})
		printSeries(stdout, "cal_s", "s", cal.seconds)
		printSeries(stdout, "setup_cpu_s", "s", setups)
		printSeries(stdout, "pass_cpu_s", "s", cpus)
		// Wall-clock times are printed, not gated: on a shared virtual
		// machine they carry the time the vCPUs are descheduled.
		printSeries(stdout, "setup_wall_s", "s", setupWalls)
		printSeries(stdout, "wall_s", "s", walls)
	} else {
		var pw, tw []float64
		for _, p := range plain {
			pw = append(pw, p.cpuSeconds)
		}
		for _, p := range traced {
			tw = append(tw, p.cpuSeconds)
		}
		m["trace.overhead_frac"] = metric{median(tw)/median(pw) - 1, "ratio"}
		m["tape.record_s"] = metric{median(setups), "s"}
		if err := w.layers(tr, traced, chk, m); err != nil {
			return result{}, nil, fmt.Errorf("layer replay: %w", err)
		}
		for _, s := range selfTimesSummary(tr.snapshot()) {
			fmt.Fprintln(stdout, s)
		}
	}
	attempted, failed, problems := chk.counts()
	for _, p := range problems {
		fmt.Fprintln(stdout, "FAILED", p)
	}
	ctxLine, _ := json.Marshal(ctx)
	fmt.Fprintf(stdout, "context %s\n", ctxLine)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(stdout, "passes untraced=%d traced=%d attempted=%d failed=%d\n", len(plain), len(traced), attempted, failed)
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, tr.snapshot(), nil
}

// scaled returns xs times k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// printSeries prints a metric's samples as median, quartiles and count.
func printSeries(w io.Writer, name, unit string, xs []float64) {
	q := quartiles(xs)
	fmt.Fprintf(w, "series %-14s median=%.6g q1=%.6g q3=%.6g n=%d %s\n", name, median(xs), q[0], q[2], len(xs), unit)
}

// selfTimesSummary renders span totals and self times by name.
func selfTimesSummary(spans []span) []string {
	tot, self := spanTotals(spans), selfTimes(spans)
	names := make([]string, 0, len(tot))
	for k := range tot {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, k := range names {
		out = append(out, fmt.Sprintf("span %-48s total=%.4fs self=%.4fs", k, tot[k], self[k]))
	}
	return out
}

// writeSpans writes the run context and every span as one JSON file.
func writeSpans(dir string, ctx runContext, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Context runContext `json:"context"`
		Spans   []span     `json:"spans"`
	}{ctx, spans})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.json", ctx.Workload, ctx.Seed))
	return os.WriteFile(path, b, 0o644)
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// writeRef runs one untimed pass at the default seed with no reference
// and commits its outputs.
func writeRef(name string, mk func(int64, string) benchWorkload, dir string) error {
	w := mk(defaultSeed, dir)
	defer w.close()
	if err := w.setUp(); err != nil {
		return err
	}
	r, ok := w.(interface {
		reference(chk *checker) (map[string][]byte, error)
	})
	chk := newChecker(nil)
	var outs map[string][]byte
	var err error
	if ok {
		outs, err = r.reference(chk)
	} else {
		_, err = w.pass(nil, 1, chk)
		outs = chk.outputs()
	}
	if err != nil {
		return err
	}
	if _, failed, problems := chk.counts(); failed > 0 {
		return errors.New(strings.Join(problems, "; "))
	}
	return writeReference(dir, name, outs)
}
