package tracker_test

import (
	"fmt"

	"m5/internal/mem"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// ExampleTracker_Query shows the HPT lifecycle: observe the DRAM access
// stream, query the top-K (which resets the epoch), repeat.
func ExampleTracker_Query() {
	hpt := tracker.New(tracker.Config{
		Granularity: tracker.PageGranularity,
		Algorithm:   tracker.CMSketch,
		Entries:     4096,
		K:           3,
	})

	// A stream with one very hot page, one warm page, and noise.
	for i := 0; i < 100; i++ {
		hpt.ObserveN(trace.Access{Addr: mem.PFN(7).Addr()}, 1)
	}
	for i := 0; i < 10; i++ {
		hpt.ObserveN(trace.Access{Addr: mem.PFN(9).Addr()}, 1)
	}
	hpt.ObserveN(trace.Access{Addr: mem.PFN(1000).Addr()}, 1)

	for _, e := range hpt.Query() {
		fmt.Printf("%s: %d accesses\n", mem.PFN(e.Addr), e.Count)
	}
	// The query reset the epoch.
	fmt.Println("after query:", len(hpt.Peek()), "entries")
	// Output:
	// pfn:0x7: 100 accesses
	// pfn:0x9: 10 accesses
	// pfn:0x3e8: 1 accesses
	// after query: 0 entries
}

// ExampleNewHWT shows word-granularity tracking: the HWT reports hot 64B
// words, which the Nominator folds into per-page hot-word masks.
func ExampleNewHWT() {
	hwt := tracker.NewHWT(tracker.CMSketch, 4096)
	hot := mem.PFN(3).Word(5) // word 5 of page 3
	for i := 0; i < 42; i++ {
		hwt.ObserveN(trace.Access{Addr: hot.Addr()}, 1)
	}
	top := hwt.Peek()
	fmt.Printf("page %d word %d: %d accesses\n",
		mem.WordNum(top[0].Addr).Page(), mem.WordNum(top[0].Addr).Index(), top[0].Count)
	// Output:
	// page 3 word 5: 42 accesses
}
