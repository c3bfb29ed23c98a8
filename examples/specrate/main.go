// SPECrate contention: the paper's evaluation runs eight instances of each
// SPEC workload sharing one CXL device (§6). This example scales mcf from
// one to eight co-running instances (one core each) with and without M5:
// the device's single DDR4 channel saturates and queueing delay inflates
// the effective CXL latency that page migration works against.
//
// Run with: go run ./examples/specrate
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
	const perCore = 600_000

	fmt.Println("mcf SPECrate-style scaling on one CXL device (DDR4 channel ~21GB/s)")
	fmt.Println()
	fmt.Printf("%-10s %-16s %-16s %-12s %-14s\n",
		"instances", "none (Macc/s)", "m5 (Macc/s)", "m5 speedup", "m5 cxl-read%")

	for _, n := range []int{1, 2, 4, 8} {
		none := run(n, false, perCore)
		withM5 := run(n, true, perCore)
		if none.AccessesPerSec > 0 {
			fmt.Printf("%-10d %-16.1f %-16.1f %-12.3f %-14.1f\n", n, none.AccessesPerSec/1e6,
				withM5.AccessesPerSec/1e6, withM5.AccessesPerSec/none.AccessesPerSec, 100*withM5.CXLReadShare())
		}
	}
	fmt.Println()
	fmt.Println("throughput: the measured span's accesses over its slowest core's time")
}

func run(instances int, withM5 bool, perCore int) sim.Result {
	cfg := sim.Config{Workload: workload.MustNew("mcf", workload.ScaleTiny, 1), Bandwidth: true}
	for i := 1; i < instances; i++ {
		cfg.CoRunning = append(cfg.CoRunning, workload.MustNew("mcf", workload.ScaleTiny, int64(i+1)))
	}
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
	// Warm to steady state: fill DDR before measuring.
	prev := r.Sys.Promotions()
	for i := 0; i < 20; i++ {
		r.Run(perCore / 4)
		if r.Sys.Node(tiermem.NodeDDR).FreePages() == 0 || r.Sys.Promotions() == prev {
			break
		}
		prev = r.Sys.Promotions()
	}
	return r.Run(perCore)
}
