package experiments

import (
	"m5/internal/sim"
)

// Fig9Config names the migration configurations of Figure 9.
type Fig9Config string

// The five plotted configurations plus the normalization baseline.
const (
	Fig9None   Fig9Config = "none"
	Fig9ANB    Fig9Config = "anb"
	Fig9DAMON  Fig9Config = "damon"
	Fig9M5HPT  Fig9Config = "m5-hpt"
	Fig9M5HWT  Fig9Config = "m5-hwt"
	Fig9M5Both Fig9Config = "m5-hpt+hwt"
)

// Fig9Configs returns the plotted configurations in figure order.
func Fig9Configs() []Fig9Config {
	return []Fig9Config{Fig9ANB, Fig9DAMON, Fig9M5HPT, Fig9M5HWT, Fig9M5Both}
}

// Fig9Row is one benchmark group of Figure 9: performance normalized to no
// page migration (higher is better). For Redis the metric is the inverse
// normalized p99 latency, as in the paper.
type Fig9Row struct {
	Benchmark string
	Norm      map[Fig9Config]float64
	// Raw holds the underlying simulator results per configuration.
	Raw map[Fig9Config]sim.Result
}

// Fig9 reproduces Figure 9 (§7.2 end-to-end): each benchmark starts with
// every page on CXL DRAM, the configuration's daemon migrates under a DDR
// cgroup limit of half the footprint, and performance is normalized to the
// no-migration run.
func Fig9(p Params) ([]Fig9Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	cfgs := append([]Fig9Config{Fig9None}, Fig9Configs()...)
	arms := make([]Cell, len(cfgs))
	for i, cfg := range cfgs {
		arms[i] = Cell{Arm: string(cfg)}
	}
	results, err := runEach(p, "fig9", benchGrid(p.Benchmarks, arms...), p.runCell)
	if err != nil {
		return nil, err
	}
	rows := make([]Fig9Row, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		row := Fig9Row{
			Benchmark: bench,
			Norm:      make(map[Fig9Config]float64),
			Raw:       make(map[Fig9Config]sim.Result),
		}
		none := results[i*len(cfgs)]
		row.Raw[Fig9None] = none
		row.Norm[Fig9None] = 1
		for j, cfg := range Fig9Configs() {
			res := results[i*len(cfgs)+1+j]
			row.Raw[cfg] = res
			row.Norm[cfg] = normalizedPerf(none, res)
		}
		rows[i] = row
	}
	return rows, nil
}

// normalizedPerf computes the figure's y-axis: inverse normalized p99 for
// the latency-sensitive KVS, inverse normalized execution time otherwise.
func normalizedPerf(none, res sim.Result) float64 {
	if res.OpCount > 0 && none.OpCount > 0 && none.P99OpNs > 0 && res.P99OpNs > 0 {
		return none.P99OpNs / res.P99OpNs
	}
	if res.ElapsedNs == 0 {
		return 0
	}
	return float64(none.ElapsedNs) / float64(res.ElapsedNs)
}
