package m5

import (
	"slices"

	"m5/internal/mem"
	"m5/internal/tiermem"
)

// Promoter is the kernel-interface component (§5.2 ④): it receives hot
// frame addresses from Elector, reverse-maps them to virtual pages, runs
// the safety checks (pinned pages, explicit CXL placement), and invokes
// migrate_pages() via the system. Demotion victims come from MGLRU inside
// tiermem.System.PromoteBatch, as the paper's design prescribes.
type Promoter struct {
	sys *tiermem.System

	promoted uint64
	refused  uint64
}

// hugeDenseMin is how many nominated frames promote a 2MB unit (§8): a
// nominated 4KB frame inside a huge mapping is folded into its unit, and
// the unit moves as a whole once at least this many of its frames are
// nominated hot. A 4KB arena has no huge mappings, so nothing folds.
const hugeDenseMin = 2

// NewPromoter wraps a system.
func NewPromoter(sys *tiermem.System) *Promoter {
	return &Promoter{sys: sys}
}

// Promote migrates the nominated pages to DDR DRAM, returning how many
// were migrated. Unknown frames (freed or remapped since nomination) and
// pinned pages are refused, mirroring the proc-file component's checks.
func (p *Promoter) Promote(pages []HotPage) int {
	if len(pages) == 0 {
		return 0
	}
	want := make(map[mem.PFN]int, len(pages))
	for i, h := range pages {
		want[h.PFN] = i
	}
	// One reverse-map walk resolves the whole batch (the kernel uses its
	// rmap; the model walks the flat table once).
	const (
		missing = iota
		resolved
		pinned
	)
	batch := make([]tiermem.VPN, len(pages))
	status := make([]int, len(pages))
	p.sys.PageTable().ForEach(func(v tiermem.VPN, pte *tiermem.PTE) bool {
		if !pte.Valid {
			return true
		}
		if i, ok := want[pte.Frame]; ok {
			if pte.Pinned {
				status[i] = pinned
				return true
			}
			batch[i] = v
			status[i] = resolved
		}
		return true
	})
	ordered := make([]tiermem.VPN, 0, len(pages))
	hugeHits := make(map[tiermem.VPN]int)
	for i := range batch {
		if status[i] != resolved {
			p.refused++
			continue
		}
		if head, ok := p.sys.HugeHeadOf(batch[i]); ok {
			hugeHits[head]++
			continue
		}
		ordered = append(ordered, batch[i])
	}
	n := p.sys.PromoteBatch(ordered)
	// Once DDR runs short, promotion order decides which units move, so
	// dense units go in head order, never map order.
	heads := make([]tiermem.VPN, 0, len(hugeHits))
	for head, hits := range hugeHits {
		if hits >= hugeDenseMin {
			heads = append(heads, head)
		}
	}
	slices.Sort(heads)
	for _, head := range heads {
		if err := p.sys.PromoteHuge(head); err == nil {
			n += mem.PagesPerHugePage
		} else {
			p.refused++
		}
	}
	p.promoted += uint64(n)
	return n
}

// Promoted returns the cumulative pages migrated to DDR.
func (p *Promoter) Promoted() uint64 { return p.promoted }

// Refused returns nominations rejected by the safety checks.
func (p *Promoter) Refused() uint64 { return p.refused }
