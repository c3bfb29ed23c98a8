package experiments

import (
	"fmt"

	"m5/internal/tiermem"
)

// Sec52Row is one point of the §5.2 bandwidth-proportionality validation:
// with pages randomly spread across the tiers at a given nr_pages ratio,
// the read-bandwidth ratio should track the page ratio (the paper measures
// 2→2.02, 1→0.919, ½→0.571 for mcf_r).
type Sec52Row struct {
	// PageRatio is nr_pages(DDR)/nr_pages(CXL).
	PageRatio float64
	// BWRatio is the measured bw(DDR)/bw(CXL).
	BWRatio float64
}

// Sec52PageRatios are the ratios the paper validates.
var Sec52PageRatios = []float64{2, 1, 0.5}

// Sec52 reproduces the §5.2 hypothesis check with mcf: randomly allocate
// the workload's pages across DDR and CXL at each nr_pages ratio, run with
// no migration, and report the read-bandwidth ratio.
func Sec52(p Params) ([]Sec52Row, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	return mapCells(p, len(Sec52PageRatios), func(i int) (Sec52Row, error) {
		ratio := Sec52PageRatios[i]
		wl, err := p.newGenerator("mcf")
		if err != nil {
			return Sec52Row{}, err
		}
		// DDR must hold up to 2/3 of the pages for ratio 2.
		r, _, err := p.newCellRunner(Cell{Gen: wl, DDRFraction: 0.75}, nil)
		if err != nil {
			return Sec52Row{}, err
		}
		// Spread a fraction ratio/(1+ratio) of pages onto DDR with a
		// Bresenham stripe: fine-grained interleaving is the
		// deterministic stand-in for the paper's random allocation, and
		// at reduced scale it avoids the binomial noise a literal coin
		// flip would add over so few pages.
		ddrFrac := ratio / (1 + ratio)
		footPages := int(wl.Footprint() / 4096)
		acc := 0.0
		for i := 0; i < footPages; i++ {
			acc += ddrFrac
			if acc < 1 {
				continue
			}
			acc--
			if err := r.Sys.Migrate(r.Base()+tiermem.VPN(i), tiermem.NodeDDR); err != nil {
				break // DDR exhausted: keep the remainder on CXL
			}
		}
		r.Run(p.Warmup)
		res := r.Run(p.Accesses)
		r.Close()
		if res.DRAMReads[tiermem.NodeCXL] == 0 {
			return Sec52Row{}, fmt.Errorf("sec52 ratio %v: no CXL reads", ratio)
		}
		return Sec52Row{
			PageRatio: ratio,
			BWRatio: float64(res.DRAMReads[tiermem.NodeDDR]) /
				float64(res.DRAMReads[tiermem.NodeCXL]),
		}, nil
	})
}
