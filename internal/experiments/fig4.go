package experiments

import (
	"fmt"

	"m5/internal/workload"
)

// Fig4Thresholds are the unique-word counts of Figure 4's bars: at most
// 4, 8, 16, 32, and 48 of a page's 64 words accessed (6.25% … 75%).
var Fig4Thresholds = []int{4, 8, 16, 32, 48}

// Fig4Row is one bar group of Figure 4: P(page has at most N unique words
// accessed), measured by WAC over the run.
type Fig4Row struct {
	Benchmark string
	// AtMost[i] is the probability for Fig4Thresholds[i].
	AtMost []float64
}

// Fig4Benchmarks extends the evaluated twelve with the Memcached and
// CacheLib variants that Figure 4 also plots.
func Fig4Benchmarks() []string {
	return append(workload.Names(), "mcd", "c.-lib")
}

// Fig4 reproduces Figure 4 (§4.1 access sparsity): run each benchmark with
// WAC attached and report the CDF of unique words accessed per 4KB page.
func Fig4(p Params) ([]Fig4Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	return mapCells(p, len(p.Benchmarks), func(i int) (Fig4Row, error) {
		bench := p.Benchmarks[i]
		r, _, err := p.newCellRunner(Cell{Bench: bench, WAC: true}, nil)
		if err != nil {
			return Fig4Row{}, fmt.Errorf("fig4 %s: %w", bench, err)
		}
		defer r.Close()
		r.Run(p.Warmup + p.Accesses)
		return Fig4Row{
			Benchmark: bench,
			AtMost:    r.Ctrl.WAC.SparsityCDF(Fig4Thresholds),
		}, nil
	})
}
