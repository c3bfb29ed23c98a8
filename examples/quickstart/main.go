// Quickstart: track the hottest pages of a skewed access stream with an
// M5 Hot-Page Tracker, exactly as the CXL controller would — a CM-Sketch
// estimating per-page counts and a sorted CAM holding the top-K — and
// compare what it reports against exact counting.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"math/rand"

	"m5/internal/mem"
	"m5/internal/sketch"
	"m5/internal/trace"
	"m5/internal/tracker"
)

func main() {
	// A Hot-Page Tracker with the paper's deployed configuration:
	// CM-Sketch with 32K counters, top-8 sorted CAM.
	hpt := tracker.New(tracker.Config{
		Granularity: tracker.PageGranularity,
		Algorithm:   tracker.CMSketch,
		Entries:     32 * 1024,
		K:           8,
	})
	exact := sketch.NewExact()

	// A zipf-skewed stream over 64K pages: a few pages dominate, the
	// long tail is warm — the situation where CPU-driven migration picks
	// warm pages and M5's counting picks the truly hot ones.
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.2, 16, 64*1024-1)
	fmt.Println("streaming 2M accesses over a zipf-skewed 256MB region...")
	for i := 0; i < 2_000_000; i++ {
		page := mem.PFN(zipf.Uint64())
		addr := page.Addr() + mem.PhysAddr(rng.Intn(mem.WordsPerPage))*mem.WordSize
		hpt.ObserveN(trace.Access{Time: uint64(i), Addr: addr}, 1)
		exact.AddN(uint64(page), 1)
	}

	// Query the tracker (one MMIO read in hardware); this also resets it
	// for the next epoch.
	top := hpt.Query()
	fmt.Printf("\n%-6s %-14s %-12s %-12s\n", "rank", "page", "estimated", "exact")
	var estSum, exactSum uint64
	for i, e := range top {
		fmt.Printf("%-6d %-14s %-12d %-12d\n", i+1, mem.PFN(e.Addr), e.Count, exact.Estimate(e.Addr))
		estSum += e.Count
		exactSum += exact.Estimate(e.Addr)
	}
	fmt.Printf("\nCM-Sketch overestimation on the top-%d: %.2f%%\n",
		len(top), 100*float64(estSum-exactSum)/float64(exactSum))
	fmt.Println("(CM-Sketch never underestimates; collisions only inflate counts)")
}
