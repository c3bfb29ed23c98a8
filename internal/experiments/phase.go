package experiments

import (
	"fmt"

	m5mgr "m5/internal/m5"
	"m5/internal/workload"
)

// PhasePoint is one measurement window of the phase-change study: the
// fraction of DRAM reads still served by CXL under a drifting hot set.
// Lower is better; a responsive policy keeps re-promoting the moving hot
// keys.
type PhasePoint struct {
	Policy string
	Window int
	// CXLShare is the fraction of this window's DRAM reads served by CXL.
	CXLShare float64
	// Promotions is the cumulative promotion count at window end.
	Promotions uint64
}

// ExtPhaseChange drives YCSB-D — whose "latest" request distribution makes
// the hot set follow the insertion front — under no migration, ANB, DAMON,
// and M5(HPT), reporting per-window CXL read share. The §7.2 discussion
// anticipates exactly this: pages hot in one interval may not stay hot,
// and the policy must keep up.
func ExtPhaseChange(p Params, windows int) ([]PhasePoint, error) {
	p, err := p.prepare()
	if err != nil {
		return nil, err
	}
	if windows <= 0 {
		windows = 6
	}
	policies := []string{"none", "anb", "damon", "m5-hpt"}
	perPolicy, err := mapCells(p, len(policies), func(i int) ([]PhasePoint, error) {
		name := policies[i]
		// Size the key population to the access budget so the insertion
		// front keeps moving through the measured windows instead of
		// hitting the population cap early.
		wl := workload.NewYCSB(workload.YCSBConfig{
			Kind: workload.YCSBD,
			Keys: min(max(uint64(p.Accesses/40), 4096), 1<<19),
			Seed: p.Seed,
		})
		// Drift tuning for the M5 arm: scaled epochs see proportionally
		// fewer accesses per page, so the equilibrium break-even filter is
		// lowered to amortize over several epochs — the kind of policy
		// tuning §7.2 says Elector users must do.
		r, _, err := p.newCellRunner(Cell{
			Gen:     wl,
			Arm:     name,
			Elector: m5mgr.ElectorConfig{MinNominationCount: 64},
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("phase %s: %w", name, err)
		}
		warmToSteadyState(r, p.Warmup)
		per := p.Accesses / windows
		points := make([]PhasePoint, 0, windows)
		for w := 0; w < windows; w++ {
			res := r.Run(per)
			points = append(points, PhasePoint{
				Policy:     name,
				Window:     w,
				CXLShare:   res.CXLReadShare(),
				Promotions: res.Promotions,
			})
		}
		r.Close()
		return points, nil
	})
	if err != nil {
		return nil, err
	}
	var points []PhasePoint
	for _, pts := range perPolicy {
		points = append(points, pts...)
	}
	return points, nil
}

// PhaseSummary folds the per-window points into one row per policy: the
// mean late-phase CXL share (windows after the first, when the drift is
// under way) and whether promotions kept flowing.
type PhaseSummary struct {
	Policy        string
	LateCXLShare  float64
	KeptPromoting bool
}

// SummarizePhase computes the summary.
func SummarizePhase(points []PhasePoint) []PhaseSummary {
	type agg struct {
		sum   float64
		n     int
		first uint64
		last  uint64
	}
	byPolicy := map[string]*agg{}
	order := []string{}
	for _, pt := range points {
		a, ok := byPolicy[pt.Policy]
		if !ok {
			a = &agg{first: pt.Promotions}
			byPolicy[pt.Policy] = a
			order = append(order, pt.Policy)
		}
		if pt.Window > 0 {
			a.sum += pt.CXLShare
			a.n++
		}
		a.last = pt.Promotions
	}
	out := make([]PhaseSummary, 0, len(order))
	for _, policy := range order {
		a := byPolicy[policy]
		s := PhaseSummary{Policy: policy, KeptPromoting: a.last > a.first}
		if a.n > 0 {
			s.LateCXLShare = a.sum / float64(a.n)
		}
		out = append(out, s)
	}
	return out
}
