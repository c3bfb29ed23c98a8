// Command m5trace records and analyzes cache-filtered CXL access traces —
// the role Intel Pin + Ramulator play in the paper's §7.1 methodology.
//
// Record a trace (the stream the CXL controller's AFU snoop path sees):
//
//	m5trace record -workload roms -scale small -accesses 2000000 -o roms.m5t
//
// Inspect a recorded trace:
//
//	m5trace info -i roms.m5t
//
// Replay a trace into a top-K tracker configuration and score it against
// exact counting (one cell of Figure 7):
//
//	m5trace replay -i roms.m5t -algorithm cm-sketch -entries 32768 -k 5
//
// Export a workload access-stream tape (the columnar record-once/
// replay-many format the experiment harnesses share in memory) as a
// reusable on-disk artifact, and import one back to inspect or verify
// it:
//
//	m5trace export -workload roms -scale small -accesses 2000000 -o roms.m5tape
//	m5trace import -i roms.m5tape [-verify N]
//
// Profile a workload offline with PAC and WAC (§3) attached: the hottest
// pages, the per-page access-count distribution (Figure 10's input) and
// the access-sparsity histogram (Figure 4's input):
//
//	m5trace profile -workload redis [-scale small] [-accesses N] [-top 20] [-seed N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"m5/internal/experiments"
	"m5/internal/mem"
	"m5/internal/sim"
	"m5/internal/stats"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

func main() {
	if len(os.Args) < 2 {
		fail(fmt.Errorf("usage: m5trace record|info|replay|export|import|profile [flags]"))
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "export":
		err = exportTape(os.Args[2:])
	case "import":
		err = importTape(os.Args[2:])
	case "profile":
		err = profile(os.Stdout, os.Args[2:])
	default:
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fail(err)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	wlName := fs.String("workload", "roms", "benchmark name (Table 3)")
	scale := fs.String("scale", "small", "workload scale")
	acc := fs.Int("accesses", 2_000_000, "workload accesses to simulate")
	out := fs.String("o", "trace.m5t", "output trace file")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	sc, err := workload.ParseScale(*scale)
	if err != nil {
		return err
	}
	wl, err := workload.New(*wlName, sc, *seed)
	if err != nil {
		return err
	}
	r, err := sim.NewRunner(sim.Config{Workload: wl})
	if err != nil {
		wl.Close()
		return err
	}
	defer r.Close()

	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	var w interface {
		Write(trace.Access) error
		Count() uint64
		Close() error
	}
	if strings.HasSuffix(*out, ".gz") {
		w, err = trace.NewCompressedWriter(f)
	} else {
		w, err = trace.NewWriter(f)
	}
	if err != nil {
		return err
	}
	var writeErr error
	r.Ctrl.Device.Attach(trace.SinkFunc(func(a trace.Access, n uint64) {
		for ; n > 0 && writeErr == nil; n-- {
			writeErr = w.Write(a)
		}
	}))
	r.Run(*acc)
	if writeErr != nil {
		return writeErr
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d CXL DRAM accesses (from %d workload accesses) to %s\n",
		w.Count(), *acc, *out)
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "trace.m5t", "input trace file")
	fs.Parse(args)

	r, closeFn, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closeFn()
	var n, writes uint64
	var first, last uint64
	pages := map[mem.PFN]bool{}
	words := map[mem.WordNum]bool{}
	for {
		a, ok := r.Next()
		if !ok {
			break
		}
		if n == 0 {
			first = a.Time
		}
		last = a.Time
		n++
		if a.Write {
			writes++
		}
		pages[a.Addr.Page()] = true
		words[a.Addr.Word()] = true
	}
	if err := r.Err(); err != nil {
		return err
	}
	fmt.Printf("accesses       %d (%d writes)\n", n, writes)
	fmt.Printf("span           %.3f ms of simulated time\n", float64(last-first)/1e6)
	fmt.Printf("unique pages   %d\n", len(pages))
	fmt.Printf("unique words   %d\n", len(words))
	if len(pages) > 0 {
		fmt.Printf("words/page     %.1f average unique words per touched page\n",
			float64(len(words))/float64(len(pages)))
	}
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("i", "trace.m5t", "input trace file")
	alg := fs.String("algorithm", "cm-sketch", "cm-sketch, space-saving, sticky-sampling, cm-sketch-cu")
	entries := fs.Int("entries", 32768, "counter entries N")
	k := fs.Int("k", 5, "top-K CAM entries")
	gran := fs.String("granularity", "page", "page (HPT) or word (HWT)")
	period := fs.Uint64("period", 1_000_000, "query period in simulated ns")
	fs.Parse(args)

	r, closeFn, err := openTrace(*in)
	if err != nil {
		return err
	}
	defer closeFn()
	accs := trace.Collect(r, 0)
	if err := r.Err(); err != nil {
		return err
	}
	if len(accs) == 0 {
		return fmt.Errorf("empty trace")
	}

	cfg := tracker.Config{K: *k, Entries: *entries}
	switch *alg {
	case "cm-sketch":
		cfg.Algorithm = tracker.CMSketch
	case "space-saving":
		cfg.Algorithm = tracker.SpaceSaving
	case "sticky-sampling":
		cfg.Algorithm = tracker.StickySampling
	case "cm-sketch-cu":
		cfg.Algorithm = tracker.ConservativeCMSketch
	default:
		return fmt.Errorf("unknown algorithm %q", *alg)
	}
	switch *gran {
	case "page":
		cfg.Granularity = tracker.PageGranularity
	case "word":
		cfg.Granularity = tracker.WordGranularity
	default:
		return fmt.Errorf("unknown granularity %q", *gran)
	}

	if err := cfg.Validate(); err != nil {
		return err
	}
	acc := experiments.ScoreTrackerOnWeightedTrace(tracker.New(cfg),
		experiments.WeightedTrace{Accs: accs}, experiments.EpochByTime(*period))
	fmt.Printf("trace          %s (%d accesses)\n", *in, len(accs))
	fmt.Printf("tracker        %s/%s N=%d K=%d, query period %dns\n",
		*alg, *gran, *entries, *k, *period)
	fmt.Printf("accuracy       %.3f (mean per-epoch access-count ratio vs exact)\n", acc)
	return nil
}

func exportTape(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	wlName := fs.String("workload", "roms", "benchmark name (Table 3)")
	scale := fs.String("scale", "small", "workload scale")
	acc := fs.Uint64("accesses", 2_000_000, "accesses to record")
	out := fs.String("o", "trace.m5tape", "output tape file")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	sc, err := workload.ParseScale(*scale)
	if err != nil {
		return err
	}
	tp, err := tape.Record(*wlName, sc, *seed, *acc)
	if err != nil {
		return err
	}
	defer tp.Close()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	n, err := tp.WriteTo(f)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("exported %d accesses of %s/%s seed %d to %s (%d bytes, %.2f bytes/access)\n",
		tp.Len(), *wlName, sc, *seed, *out, n, float64(n)/float64(tp.Len()))
	return nil
}

func importTape(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	in := fs.String("i", "trace.m5tape", "input tape file")
	verify := fs.Uint64("verify", 0, "re-generate the first N accesses live and compare (0 = header check only)")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	tp, err := tape.ReadTape(f)
	if err != nil {
		return err
	}
	defer tp.Close()
	key := tp.Key()
	fmt.Printf("tape           %s (key %s/%s seed %d)\n", tp.Name(), key.Name, key.Scale, key.Seed)
	fmt.Printf("accesses       %d\n", tp.Len())
	fmt.Printf("footprint      %d bytes\n", tp.Footprint())
	fmt.Printf("encoded        %d bytes (%.2f bytes/access)\n", tp.Size(), float64(tp.Size())/float64(tp.Len()))

	if *verify == 0 {
		return nil
	}
	n := *verify
	if n > tp.Len() {
		n = tp.Len()
	}
	live, err := workload.New(key.Name, key.Scale, key.Seed)
	if err != nil {
		return fmt.Errorf("rebuilding live stream: %w", err)
	}
	defer live.Close()
	cur := tp.NewCursor()
	defer cur.Close()
	want := make([]workload.Access, 4096)
	got := make([]workload.Access, 4096)
	var checked uint64
	for checked < n {
		batch := uint64(len(want))
		if n-checked < batch {
			batch = n - checked
		}
		nw := workload.NextBatch(live, want[:batch])
		ng := workload.NextBatch(cur, got[:batch])
		if nw != ng {
			return fmt.Errorf("verify: live produced %d accesses, tape %d (at offset %d)", nw, ng, checked)
		}
		for i := 0; i < nw; i++ {
			if want[i] != got[i] {
				return fmt.Errorf("verify: access %d differs: tape %+v, live %+v", checked+uint64(i), got[i], want[i])
			}
		}
		checked += uint64(nw)
	}
	fmt.Printf("verified       %d accesses byte-identical to live generation\n", checked)
	return nil
}

// profile runs a workload with PAC and WAC attached and reports its
// hottest pages, its per-page access-count percentiles and its word
// sparsity.
func profile(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	wlName := fs.String("workload", "redis", "benchmark name (see Table 3)")
	scale := fs.String("scale", "small", "workload scale (tiny, small, medium, large)")
	acc := fs.Int("accesses", 3_000_000, "profiled accesses")
	top := fs.Int("top", 20, "hot pages to list")
	seed := fs.Int64("seed", 1, "deterministic seed")
	fs.Parse(args)

	sc, err := workload.ParseScale(*scale)
	if err != nil {
		return err
	}
	wl, err := workload.New(*wlName, sc, *seed)
	if err != nil {
		return err
	}
	r, err := sim.NewRunner(sim.Config{Workload: wl, EnablePAC: true, EnableWAC: true})
	if err != nil {
		wl.Close()
		return err
	}
	defer r.Close()
	r.Run(*acc)

	pac, wac := r.Ctrl.PAC, r.Ctrl.WAC
	fmt.Fprintf(w, "workload %s (%s): %d CXL DRAM accesses over %d touched pages\n\n",
		wl.Name(), sc, pac.Total(), pac.NonZero())

	// Top-K hot pages.
	hot := experiments.Table{
		Title:  fmt.Sprintf("PAC: top-%d hot pages", *top),
		Header: []string{"rank", "pfn", "accesses", "hot words"},
	}
	perPage := wac.WordsAccessedPerPage()
	for i, kc := range pac.TopK(*top) {
		hot.Add(i+1, mem.PFN(kc.Key).String(), kc.Count, perPage[mem.PFN(kc.Key)])
	}
	hot.Render(w)
	fmt.Fprintln(w)

	// Access-count distribution.
	counts := pac.Counts()
	vals := make([]uint64, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, c)
	}
	cdf := stats.NewCDF(vals)
	dist := experiments.Table{
		Title:  "PAC: per-page access-count percentiles",
		Header: []string{"p50", "p90", "p95", "p99", "p99/p50"},
	}
	p50 := cdf.Quantile(0.5)
	ratio := 0.0
	if p50 > 0 {
		ratio = float64(cdf.Quantile(0.99)) / float64(p50)
	}
	dist.Add(p50, cdf.Quantile(0.9), cdf.Quantile(0.95), cdf.Quantile(0.99), ratio)
	dist.Render(w)
	fmt.Fprintln(w)

	// Sparsity (Figure 4 thresholds).
	sp := wac.SparsityCDF(experiments.Fig4Thresholds)
	spt := experiments.Table{
		Title:  "WAC: P(page has at most N unique words accessed)",
		Header: []string{"<=4", "<=8", "<=16", "<=32", "<=48"},
	}
	spt.Add(sp[0], sp[1], sp[2], sp[3], sp[4])
	spt.Render(w)
	return nil
}

// openTrace opens a trace file, transparently handling .gz compression.
func openTrace(path string) (*trace.Reader, func() error, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var r *trace.Reader
	if strings.HasSuffix(path, ".gz") {
		r, err = trace.NewCompressedReader(f)
	} else {
		r, err = trace.NewReader(f)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return r, f.Close, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "m5trace:", err)
	os.Exit(1)
}
