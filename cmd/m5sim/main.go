// Command m5sim runs one end-to-end tiered-memory experiment: a workload
// from the paper's Table 3 under a chosen page-migration policy, printing
// throughput, per-tier bandwidth, migration counts, kernel overhead, and
// (for the KVS) operation-latency percentiles.
//
// Usage:
//
//	m5sim -workload redis -policy m5-hpt [-scale small] [-accesses N]
//	      [-warmup N] [-ddr 0.5] [-seed N] [-instances N]
//	      [-metrics] [-events N]
//
// The policy vocabulary comes from the internal/policy registry; run
// m5sim -h for the full list. -metrics prints the per-layer observability
// counters after the run; -events N additionally records the last N policy
// events (period changes, promotion batches) and prints them.
//
// -instances N > 1 is the SPECrate-style run (§6): N copies of the
// workload on independently derived seeds, one per core, share the tiers,
// the CXL device with its bandwidth queues, and the policy, which runs on
// core 0. Every policy works there, PEBS included (it samples every
// core's misses). Accesses and traffic are totals over the cores, the
// simulated time is the slowest core's, and the op-latency percentiles
// are the worst core's.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"m5/internal/obs"
	"m5/internal/parallel"
	"m5/internal/policy"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/workload"
)

func main() {
	var (
		wlName    = flag.String("workload", "redis", "benchmark name (see Table 3): lib., bc, bfs, cc, pr, sssp, tc, cactu, foto, mcf, roms, redis")
		policyFl  = flag.String("policy", "m5-hpt", "migration policy: "+strings.Join(policy.Names(), ", "))
		scale     = flag.String("scale", "small", "workload scale (tiny, small, medium, large)")
		acc       = flag.Int("accesses", 3_000_000, "measured accesses")
		warmup    = flag.Int("warmup", 1_000_000, "warm-up accesses")
		ddr       = flag.Float64("ddr", 0.5, "DDR cgroup limit as a fraction of the footprint")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		instances = flag.Int("instances", 1, "co-running instances (SPECrate-style multi-core run)")
		metrics   = flag.Bool("metrics", false, "print the per-layer observability counters after the run")
		events    = flag.Int("events", 0, "record and print the last N policy events (0 disables)")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"m5sim runs one tiered-memory experiment end to end.\n\nUsage:\n  m5sim [flags]\n\nFlags:\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(),
			"\nPolicies: %s\nScales:   tiny, small, medium, large\n",
			strings.Join(policy.Names(), ", "))
	}
	flag.Parse()

	sc, err := workload.ParseScale(*scale)
	if err != nil {
		fail(err)
	}
	if _, ok := policy.Lookup(*policyFl); !ok && *policyFl != "none" {
		fail(fmt.Errorf("unknown policy %q (one of %v)", *policyFl, policy.Names()))
	}
	reg := newRegistry(*metrics, *events)
	n := max(*instances, 1)
	streams := make([]workload.Generator, n)
	for i := range streams {
		streamSeed := *seed
		if n > 1 {
			// Derived (not sequential) seeds keep instance streams
			// statistically independent: seed+i correlates instance i of
			// run s with instance i-1 of run s+1.
			streamSeed = parallel.DeriveSeed(*seed, *wlName, fmt.Sprint(i))
		}
		if streams[i], err = workload.New(*wlName, sc, streamSeed); err != nil {
			fail(err)
		}
	}
	wl := streams[0]
	cfg := sim.Config{Workload: wl, CoRunning: streams[1:], Bandwidth: n > 1, DDRFraction: *ddr, Metrics: reg}
	if policy.NeedsHPT(*policyFl) {
		cfg.HPT = policy.DefaultHPT()
	}
	if policy.NeedsHWT(*policyFl) {
		cfg.HWT = policy.DefaultHWT()
	}
	r, err := sim.NewRunner(cfg)
	if err != nil {
		fail(err)
	}
	defer r.Close()

	d, err := policy.New(*policyFl, policy.Env{
		Sys:            r.Sys,
		Ctrl:           r.Ctrl,
		FootPages:      r.Sys.PageTable().Len(),
		Migrate:        true,
		AttachMissSink: r.AttachMissSink,
		Metrics:        reg.Scope("policy"),
	})
	if err != nil {
		fail(err)
	}
	if d != nil {
		r.SetDaemon(d)
	}

	name := wl.Name()
	if n > 1 {
		name = fmt.Sprintf("%s x%d", name, n)
	}
	fmt.Printf("workload %s (%s, %.1f MB footprint), policy %s, DDR limit %.0f%% of footprint\n",
		name, sc, float64(wl.Footprint())/(1<<20), *policyFl, 100**ddr)
	start := time.Now()
	r.Run(*warmup)
	res := r.Run(*acc)
	fmt.Printf("host time: %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("accesses          %d\n", res.Accesses)
	fmt.Printf("simulated time    %.3f ms\n", float64(res.ElapsedNs)/1e6)
	fmt.Printf("throughput        %.1f M accesses/s (simulated)\n", res.AccessesPerSec/1e6)
	fmt.Printf("kernel mm time    %.3f ms (%.2f%% of run)\n",
		float64(res.KernelNs)/1e6, 100*float64(res.KernelNs)/float64(res.ElapsedNs))
	fmt.Printf("DRAM reads        ddr=%d cxl=%d (cxl share %.1f%%)\n",
		res.DRAMReads[tiermem.NodeDDR], res.DRAMReads[tiermem.NodeCXL], 100*res.CXLReadShare())
	fmt.Printf("DRAM writebacks   ddr=%d cxl=%d\n",
		res.DRAMWrites[tiermem.NodeDDR], res.DRAMWrites[tiermem.NodeCXL])
	fmt.Printf("migrations        %d promoted, %d demoted\n", res.Promotions, res.Demotions)
	fmt.Printf("resident pages    ddr=%d cxl=%d\n",
		r.Sys.ResidentPages(tiermem.NodeDDR), r.Sys.ResidentPages(tiermem.NodeCXL))
	if res.OpCount > 0 {
		fmt.Printf("operations        %d (p50 %.0f ns, p99 %.0f ns)\n",
			res.OpCount, res.P50OpNs, res.P99OpNs)
	}
	printObservability(reg, *metrics, *events)
}

// newRegistry builds the observability registry the flags ask for: nil
// (zero overhead) when neither -metrics nor -events is set.
func newRegistry(metrics bool, events int) *obs.Registry {
	switch {
	case events > 0:
		return obs.NewWithEvents(events)
	case metrics:
		return obs.New()
	}
	return nil
}

// printObservability renders the -metrics table and the -events stream.
func printObservability(reg *obs.Registry, metrics bool, events int) {
	if reg == nil {
		return
	}
	if metrics {
		fmt.Printf("\nmetrics:\n")
		reg.Snapshot().WriteTable(os.Stdout)
	}
	if events > 0 {
		log := reg.Events()
		evs := log.Events()
		fmt.Printf("\nevents (%d recorded, %d dropped):\n", len(evs), log.Dropped())
		for _, e := range evs {
			fmt.Printf("  %12d ns  %-12s %-16s subject=%d value=%d\n",
				e.TimeNs, e.Scope, e.Kind, e.Subject, e.Value)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "m5sim:", err)
	os.Exit(1)
}
