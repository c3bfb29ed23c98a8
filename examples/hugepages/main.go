// Huge pages (§8): the paper sketches extending M5 to 2MB pages — fold
// hot 4KB addresses from HPT into huge-page candidates and migrate units.
// This example runs mcf (dense, uniform arrays: the friendly case) and
// liblinear (a hot set far smaller than 2MB: the hostile case) under 4KB
// and 2MB migration granularity and prints the §8 trade-off.
//
// Run with: go run ./examples/hugepages
package main

import (
	"fmt"

	m5mgr "m5/internal/m5"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/tracker"
	"m5/internal/workload"
)

func main() {
	fmt.Println("M5 migration granularity: 4KB pages vs 2MB huge pages")
	fmt.Println("(norm perf vs no migration over matched arenas)")
	fmt.Println()
	fmt.Printf("%-10s %-12s %-12s %-10s\n", "workload", "4KB", "2MB", "winner")
	for _, bench := range []string{"mcf", "lib."} {
		p4k := normPerf(bench, false)
		p2m := normPerf(bench, true)
		winner := "4KB"
		if p2m > p4k {
			winner = "2MB"
		}
		fmt.Printf("%-10s %-12.3f %-12.3f %-10s\n", bench, p4k, p2m, winner)
	}
	fmt.Println()
	fmt.Println("dense uniform arrays (mcf) love bulk unit moves: one ~200µs copy")
	fmt.Println("replaces 512 × 54µs migrate_pages() calls; liblinear's hot weight")
	fmt.Println("array is far smaller than 2MB, so whole units thrash the DDR budget —")
	fmt.Println("which is why M5 consults hot 4KB/word density before choosing the")
	fmt.Println("migration grain (§8)")
}

func normPerf(bench string, huge bool) float64 {
	run := func(withM5 bool) uint64 {
		wl := workload.MustNew(bench, workload.ScaleSmall, 5)
		cfg := sim.Config{Workload: wl, HugePages: huge}
		if withM5 {
			cfg.HPT = &tracker.Config{Algorithm: tracker.CMSketch, Entries: 32 * 1024, K: 64}
		}
		r, err := sim.NewRunner(cfg)
		if err != nil {
			panic(err)
		}
		defer r.Close()
		if withM5 {
			r.SetDaemon(m5mgr.NewManager(r.Sys, r.Ctrl, m5mgr.ManagerConfig{Mode: m5mgr.HPTOnly}))
		}
		// Warm to steady state, then measure.
		prev := r.Sys.Promotions()
		for i := 0; i < 20; i++ {
			r.Run(300_000)
			if r.Sys.Node(tiermem.NodeDDR).FreePages() == 0 || r.Sys.Promotions() == prev {
				break
			}
			prev = r.Sys.Promotions()
		}
		return r.Run(1_200_000).ElapsedNs
	}
	none := run(false)
	m5t := run(true)
	if m5t == 0 {
		return 0
	}
	return float64(none) / float64(m5t)
}
