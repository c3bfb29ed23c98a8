package experiments

import (
	"fmt"

	"m5/internal/stats"
)

// Fig10Log10Points is the x-axis of Figure 10: log10 of the per-page
// access count.
var Fig10Log10Points = []float64{0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6}

// Fig10Row is one CDF line of Figure 10: the distribution of PAC-measured
// access counts over all touched pages of a benchmark.
type Fig10Row struct {
	Benchmark string
	// CDF[i] = P(page access count <= 10^Fig10Log10Points[i]).
	CDF []float64
	// P50, P90, P95, P99 are per-page access-count percentiles, used for
	// the §7.2 skew arithmetic (roms: p90/p95/p99 ≈ 2×/8×/17× p50).
	P50, P90, P95, P99 uint64
}

// Fig10 reproduces Figure 10: run each benchmark with PAC attached and
// report the access-count CDF over pages with at least one access.
func Fig10(p Params) ([]Fig10Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	return mapCells(p, len(p.Benchmarks), func(i int) (Fig10Row, error) {
		bench := p.Benchmarks[i]
		r, _, err := p.newCellRunner(Cell{Bench: bench, PAC: true}, nil)
		if err != nil {
			return Fig10Row{}, fmt.Errorf("fig10 %s: %w", bench, err)
		}
		r.Run(p.Warmup + p.Accesses)
		counts := r.Ctrl.PAC.Counts()
		r.Close()
		if len(counts) == 0 {
			return Fig10Row{}, fmt.Errorf("fig10 %s: PAC saw no accesses", bench)
		}
		vals := make([]uint64, 0, len(counts))
		//m5:orderinvariant NewCDF sorts its input; collection order is
		// erased before any percentile is read.
		for _, c := range counts {
			vals = append(vals, c)
		}
		cdf := stats.NewCDF(vals)
		return Fig10Row{
			Benchmark: bench,
			CDF:       cdf.LogPoints(Fig10Log10Points),
			P50:       cdf.Quantile(0.50),
			P90:       cdf.Quantile(0.90),
			P95:       cdf.Quantile(0.95),
			P99:       cdf.Quantile(0.99),
		}, nil
	})
}
