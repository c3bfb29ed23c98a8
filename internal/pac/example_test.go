package pac_test

import (
	"fmt"

	"m5/internal/mem"
	"m5/internal/pac"
	"m5/internal/trace"
)

// ExampleCounter shows PAC's offline profiling flow: count every access,
// then read the precise totals and rank pages.
func ExampleCounter() {
	region := mem.NewRange(0, 16*mem.PageSize)
	p := pac.NewPAC(region)

	for i := 0; i < 7; i++ {
		p.ObserveN(trace.Access{Addr: mem.PFN(3).Addr()}, 1)
	}
	p.ObserveN(trace.Access{Addr: mem.PFN(9).Addr()}, 1)

	for _, kc := range p.TopK(2) {
		fmt.Printf("%s: %d\n", mem.PFN(kc.Key), kc.Count)
	}
	fmt.Printf("ratio of a perfect hot list: %.2f\n",
		p.AccessCountRatio([]uint64{3, 9}))
	// Output:
	// pfn:0x3: 7
	// pfn:0x9: 1
	// ratio of a perfect hot list: 1.00
}

// ExampleCounter_SparsityCDF shows WAC's Figure 4 output: the probability
// a page has at most N unique words accessed.
func ExampleCounter_SparsityCDF() {
	region := mem.NewRange(0, 4*mem.PageSize)
	w := pac.NewWAC(region)

	// Page 0: 2 unique words (sparse). Page 1: 40 unique words (dense).
	for i := uint(0); i < 2; i++ {
		w.ObserveN(trace.Access{Addr: mem.PFN(0).Word(i).Addr()}, 1)
	}
	for i := uint(0); i < 40; i++ {
		w.ObserveN(trace.Access{Addr: mem.PFN(1).Word(i).Addr()}, 1)
	}

	cdf := w.SparsityCDF([]int{16, 48})
	fmt.Printf("P(<=16 words) = %.1f\n", cdf[0])
	fmt.Printf("P(<=48 words) = %.1f\n", cdf[1])
	// Output:
	// P(<=16 words) = 0.5
	// P(<=48 words) = 1.0
}
