package tiermem

import "slices"

// MGLRU is the Multi-Generational LRU abstraction M5 relies on to choose
// demotion victims (§5.2): pages carry a generation stamp refreshed when a
// page walk observes them accessed; aging advances the epoch; the coldest
// generations demote first. The paper treats MGLRU as a robust, precise,
// and cost-effective black box, and so does this model.
type MGLRU struct {
	pt    *PageTable
	epoch uint64
	// out and cands are reusable scratch for DemoteCandidates: the
	// selection runs on every promotion once DDR is full, and rebuilding
	// (and sorting) a full candidate list per call dominated the fault
	// path. The returned slice aliases out.
	out   []VPN
	cands []demoteCand
}

type demoteCand struct {
	v   VPN
	gen uint64
}

// NewMGLRU wraps a page table.
func NewMGLRU(pt *PageTable) *MGLRU { return &MGLRU{pt: pt, epoch: 1} }

// Epoch returns the current aging epoch.
func (g *MGLRU) Epoch() uint64 { return g.epoch }

// Age starts a new generation.
func (g *MGLRU) Age() { g.epoch++ }

// Touch refreshes a page's generation; called when a page walk or scan
// observes the page accessed.
//
//m5:hotpath
func (g *MGLRU) Touch(pte *PTE) { pte.Gen = g.epoch }

// candLess orders candidates coldest generation first, ties broken by
// VPN — a total order, so any selection of the n smallest is unique and
// output-deterministic.
func candLess(a, b demoteCand) bool {
	if a.gen != b.gen {
		return a.gen < b.gen
	}
	return a.v < b.v
}

// DemoteCandidates returns up to n unpinned, valid pages resident on the
// node, coldest generation first (ties broken by VPN for determinism).
// The returned slice aliases scratch owned by the MGLRU and is only
// valid until the next call.
//
// The output is a pure function of page-table state — the n smallest
// pages under the (gen, VPN) total order — so the bounded selections
// below (a single min-scan for n=1, a size-n max-heap otherwise) return
// exactly what sorting the full candidate list did, without
// materializing it.
func (g *MGLRU) DemoteCandidates(node NodeID, n int) []VPN {
	if n <= 0 {
		return nil
	}
	g.out = g.out[:0]
	if n == 1 {
		// The Promote path: one victim per promotion once DDR is full.
		var best demoteCand
		found := false
		g.pt.ForEach(func(v VPN, pte *PTE) bool {
			if pte.Valid && !pte.Pinned && pte.Node == node {
				c := demoteCand{v, pte.Gen}
				if !found || candLess(c, best) {
					best, found = c, true
				}
			}
			return true
		})
		if found {
			g.out = append(g.out, best.v)
		}
		return g.out
	}

	// Bounded selection: keep the n smallest candidates in a max-heap
	// (root = largest kept), replacing the root whenever a smaller
	// candidate appears, then sort the survivors ascending.
	h := g.cands[:0]
	g.pt.ForEach(func(v VPN, pte *PTE) bool {
		if !pte.Valid || pte.Pinned || pte.Node != node {
			return true
		}
		c := demoteCand{v, pte.Gen}
		if len(h) < n {
			h = append(h, c)
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if !candLess(h[p], h[i]) {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
			return true
		}
		if !candLess(c, h[0]) {
			return true
		}
		// Replace the root and sift down.
		h[0] = c
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			big := i
			if l < len(h) && candLess(h[big], h[l]) {
				big = l
			}
			if r < len(h) && candLess(h[big], h[r]) {
				big = r
			}
			if big == i {
				break
			}
			h[i], h[big] = h[big], h[i]
			i = big
		}
		return true
	})
	g.cands = h
	slices.SortFunc(h, func(a, b demoteCand) int {
		if candLess(a, b) {
			return -1
		}
		if candLess(b, a) {
			return 1
		}
		return 0
	})
	for _, c := range h {
		g.out = append(g.out, c.v)
	}
	return g.out
}
