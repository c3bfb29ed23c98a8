package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"

	"m5/internal/experiments"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// tapeBudget is the tape pool byte budget, m5bench's and m5serve's
// default.
const tapeBudget = 256 << 20

// warmChunks is the most warmup chunks a Figure 9 cell runs before its
// measured span (one plus warmToSteadyState's twenty extensions); set-up
// records that much of each stream so no timed pass records.
const warmChunks = 21

// batchParams is the exact, tiny-scale grid every batch workload runs:
// the QuickParams benchmarks at half its access budgets, so a run holds
// enough passes for a steady median; one caller at Parallel=1, obs
// collected so the Figure 9 snapshot is checked and its access count
// read.
func batchParams(seed int64) experiments.Params {
	p := experiments.QuickParams()
	p.Warmup, p.Accesses = 50_000, 200_000
	p.Seed = seed
	p.Parallel = 1
	p.CollectObs = true
	return p
}

// harnessOp is one RunHarness call of a pass, with the workload's
// Params.
type harnessOp struct {
	key     string // output key in the reference
	harness string
	// accesses is the simulated accesses one call stands for (0 when the
	// harness exposes no count: ext-contention collects no obs).
	accesses func(*experiments.Result) float64
}

// batchWL runs a fixed list of harness calls per pass over a shared
// tape pool recorded in set-up.
type batchWL struct {
	p       experiments.Params
	ops     []harnessOp
	benches []string // streams recorded in set-up
	record  int      // accesses recorded per stream
	// exactFig9 supplies the exact Figure 9 output sampled_err_pct is
	// measured against (fullsys-sampled only).
	exactFig9 func() ([]byte, error)
	fullScore bool
	pool      *tape.Pool
}

func fig9Accesses(r *experiments.Result) float64 { return obsCounts(r)["stream_accesses"] }

func newFullsys(seed int64, _ string) benchWorkload {
	p := batchParams(seed)
	return &batchWL{
		p: p, benches: p.Benchmarks, record: warmChunks*p.Warmup + p.Accesses,
		ops: []harnessOp{
			{key: "fig9", harness: "fig9", accesses: fig9Accesses},
			{key: "ext-contention", harness: "ext-contention"},
		},
	}
}

func newTrackerSweep(seed int64, _ string) benchWorkload {
	p := batchParams(seed)
	p.Benchmarks = experiments.Fig7Benchmarks()
	per := float64(p.Warmup + p.Accesses)
	return &batchWL{
		p: p, benches: p.Benchmarks, record: p.Warmup + p.Accesses, fullScore: true,
		ops: []harnessOp{{key: "fig7", harness: "fig7", accesses: func(*experiments.Result) float64 {
			return per * float64(len(p.Benchmarks))
		}}},
	}
}

func newFullsysSampled(seed int64, refDir string) benchWorkload {
	exact := batchParams(seed)
	p := exact
	p.Sample = true
	w := &batchWL{
		p: p, benches: p.Benchmarks, record: warmChunks*p.Warmup + p.Accesses,
		ops: []harnessOp{{key: "fig9-sampled", harness: "fig9", accesses: fig9Accesses}},
	}
	w.exactFig9 = func() ([]byte, error) {
		if seed == defaultSeed {
			ref, err := loadReference(refDir, "fullsys")
			if err != nil {
				return nil, err
			}
			return ref["fig9"], nil
		}
		exact.Tapes = w.pool
		r, err := experiments.RunHarness("fig9", exact)
		if err != nil {
			return nil, err
		}
		return json.Marshal(r)
	}
	return w
}

func (w *batchWL) setUp() error {
	w.pool = tape.NewPool(tapeBudget, nil)
	return recordTapes(w.pool, w.benches, w.p.Scale, w.p.Seed, w.record)
}

// recordTapes opens each benchmark's tape and reads n accesses, so the
// pool holds that much of every stream before the first timed operation.
func recordTapes(pool *tape.Pool, benches []string, scale workload.Scale, seed int64, n int) error {
	buf := make([]workload.Access, 4096)
	for _, bench := range benches {
		g, err := pool.Open(bench, scale, seed)
		if err != nil {
			return fmt.Errorf("recording %s: %w", bench, err)
		}
		for left := n; left > 0; {
			k := workload.NextBatch(g, buf[:min(left, len(buf))])
			if k == 0 {
				break
			}
			left -= k
		}
		g.Close()
	}
	return nil
}

func (w *batchWL) pass(tr *tracer, op int, chk *checker) (passStats, error) {
	ps := passStats{outputs: map[string][]byte{}, counts: map[string]float64{}}
	root := tr.begin("pass", 0, op)
	start := time.Now()
	p := w.p
	p.Tapes = w.pool
	for _, o := range w.ops {
		id := tr.begin("experiments.RunHarness/"+o.harness, root, op)
		t0, cpu0 := time.Now(), cpuSeconds()
		r, err := experiments.RunHarness(o.harness, p)
		dt, cpu := time.Since(t0).Seconds(), cpuSeconds()-cpu0
		tr.end(id)
		var out []byte
		if err == nil {
			out, err = json.Marshal(r)
		}
		chk.record(o.key, out, err)
		ps.outputs[o.key] = out
		ps.counts["harness_s."+o.harness] = dt
		if err != nil {
			continue
		}
		if o.accesses != nil {
			ps.accesses += o.accesses(r)
			ps.accSeconds += cpu
		}
		if r.Obs != nil {
			for k, v := range obsCounts(r) {
				ps.counts[k] += v
			}
		}
	}
	ps.seconds = time.Since(start).Seconds()
	tr.end(root)
	return ps, nil
}

// minPasses gives every median a middle; a traced run alternates
// untraced and traced passes, so it makes two of each.
func (w *batchWL) minPasses(traced bool) int {
	if traced {
		return 4
	}
	return 3
}

func (w *batchWL) prepare(*checker) error { return nil }

func (w *batchWL) finish(*checker) error { return nil }

func (w *batchWL) close() {
	if w.pool != nil {
		w.pool.Close()
	}
}

// medianCount is the median over passes of one per-pass count.
func medianCount(passes []passStats, key string) float64 {
	xs := make([]float64, len(passes))
	for i, p := range passes {
		xs[i] = p.counts[key]
	}
	return median(xs)
}

func (w *batchWL) layers(tr *tracer, passes []passStats, chk *checker, m map[string]metric) error {
	s, err := runSuite(tr, layerParams{pool: w.pool, benches: w.benches, p: w.p, fullScore: w.fullScore}, m)
	if err != nil {
		return err
	}
	// Batch workloads start no server, so the serve layer reports 0.
	for _, k := range serveLayerMetrics {
		m[k.name] = metric{0, k.unit}
	}
	last := passes[len(passes)-1]
	putCounts(m, last.counts)
	var walls, harness []float64
	for _, p := range passes {
		walls = append(walls, p.seconds)
		h := 0.0
		for _, o := range w.ops {
			h += p.counts["harness_s."+o.harness]
		}
		harness = append(harness, h)
	}
	m["experiments.harness_s"] = metric{median(harness), "s"}

	errPct := 0.0
	if w.exactFig9 != nil {
		exact, err := w.exactFig9()
		if err != nil {
			return fmt.Errorf("exact Figure 9 grid: %w", err)
		}
		if errPct, err = sampledErrPct(last.outputs["fig9-sampled"], exact); err != nil {
			return err
		}
	}
	m["sim.sampled_err_pct"] = metric{errPct, "%"}

	// Ledger: replayed per-call costs times the traced call counts, over
	// the traced pass wall clock. Harnesses without obs counts
	// (ext-contention) are attributed whole at their harness span.
	var attributed float64
	if w.fullScore {
		// The decomposed Figure 7 replay makes exactly the harness's calls.
		attributed = scoreLedgerNs(s) / 1e9
	} else {
		acc := medianCount(passes, "cache_accesses")
		stream := medianCount(passes, "stream_accesses")
		dev := medianCount(passes, "cxl.snoop_reads") + medianCount(passes, "cxl.snoop_writes")
		ns := stream*s.stream.decodeNs + acc*(s.stream.translateNs+s.stream.cacheNs) + dev*s.stream.deviceNs +
			medianCount(passes, "policy.ticks")*s.meanTickUs()*1e3
		attributed = ns / 1e9
		for _, o := range w.ops {
			if o.accesses == nil {
				attributed += medianCount(passes, "harness_s."+o.harness)
			}
		}
	}
	m["ledger.attributed_frac"] = metric{attributed / median(walls), "ratio"}
	return nil
}

// scoreLedgerNs prices the decomposed Figure 7 replay's calls: decode,
// translate and cache per simulated access, the device per trace entry,
// and the trackers per ObserveKeyN and Query call.
func scoreLedgerNs(s suite) float64 {
	st := s.score
	ns := st.streamAccs*(s.stream.decodeNs+s.stream.translateNs+s.stream.cacheNs) + st.traceAccs*s.stream.deviceNs
	for alg, calls := range st.observeCalls {
		ns += calls * s.stream.observeNs[alg]
	}
	for _, q := range st.queries {
		ns += q * s.stream.queryUs * 1e3
	}
	return ns
}

// sampledErrPct is the mean |sampled - exact| / exact, in percent, over
// the Figure 9 normalized-performance cells (every benchmark row, every
// plotted configuration), read from the two harness outputs' tables.
func sampledErrPct(sampled, exact []byte) (float64, error) {
	s, err := fig9Cells(sampled)
	if err != nil {
		return 0, err
	}
	e, err := fig9Cells(exact)
	if err != nil {
		return 0, err
	}
	if len(s) != len(e) || len(e) == 0 {
		return 0, fmt.Errorf("figure 9 grids differ in shape (%d vs %d cells)", len(s), len(e))
	}
	var sum float64
	for i := range e {
		sum += math.Abs(s[i]-e[i]) / e[i]
	}
	return 100 * sum / float64(len(e)), nil
}

// fig9Cells returns the normalized-performance cells of a fig9 Result:
// columns 1-5 of every row but the trailing mean.
func fig9Cells(out []byte) ([]float64, error) {
	var r experiments.Result
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, err
	}
	if len(r.Tables) == 0 {
		return nil, fmt.Errorf("fig9 output has no table")
	}
	var cells []float64
	for _, row := range r.Tables[0].Rows {
		if len(row) < 6 || row[0] == "mean" {
			continue
		}
		for _, c := range row[1:6] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return nil, fmt.Errorf("fig9 cell %q: %w", c, err)
			}
			cells = append(cells, v)
		}
	}
	return cells, nil
}
