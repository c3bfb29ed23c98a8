package experiments

import (
	"m5/internal/sim"
)

// ExtIFMMRow is one cell of the §9 synergy study: performance of word-swap
// flat memory mode, M5 page migration, and the combination, normalized to
// no migration. The paper's argument: IFMM wins on sparse hot pages (it
// moves exactly the hot words, no TLB shootdowns or 4KB copies), M5 wins
// on dense hot pages, and they compose when CXL is larger than DDR.
type ExtIFMMRow struct {
	Benchmark string
	IFMM      float64
	M5HPT     float64
	Combined  float64
}

// throughputNorm normalizes by elapsed time for every workload. Unlike
// Figure 9, this study reports throughput even for the KVS: IFMM trades
// tail latency for throughput (cold keys always pay swap + CXL latency),
// so inverse-p99 would hide the very effect under study.
func throughputNorm(none, res sim.Result) float64 {
	if res.ElapsedNs == 0 {
		return 0
	}
	return float64(none.ElapsedNs) / float64(res.ElapsedNs)
}

// ExtIFMM runs the synergy comparison. The IFMM slot budget equals the DDR
// cgroup limit in words (the same fast-memory capacity every configuration
// gets).
func ExtIFMM(p Params) ([]ExtIFMMRow, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	// Four cells per benchmark: (IFMM?, M5?) in truth-table order.
	variants := []Cell{{}, {IFMM: true}, {Arm: "m5-hpt"}, {IFMM: true, Arm: "m5-hpt"}}
	results, err := runEach(p, "ext-ifmm", benchGrid(p.Benchmarks, variants...), p.runCell)
	if err != nil {
		return nil, err
	}
	rows := make([]ExtIFMMRow, len(p.Benchmarks))
	for i, bench := range p.Benchmarks {
		none := results[i*len(variants)]
		rows[i] = ExtIFMMRow{
			Benchmark: bench,
			IFMM:      throughputNorm(none, results[i*len(variants)+1]),
			M5HPT:     throughputNorm(none, results[i*len(variants)+2]),
			Combined:  throughputNorm(none, results[i*len(variants)+3]),
		}
	}
	return rows, nil
}
