// Package hotgood exercises the allowed hotpath patterns: nothing in
// this file may be reported.
package hotgood

import "m5/hotdep"

type stats struct{ hits, misses uint64 }

// Results carries preallocated scratch, reused across calls.
type Results struct {
	scratch []int
	s       stats
}

// Update composes the allowed constructs: struct value literals, the
// scratch append discipline, calls to annotated functions, and a
// declared cold exit.
//
//m5:hotpath
func (r *Results) Update(xs []int) int {
	r.s = stats{hits: r.s.hits + 1}
	r.scratch = r.scratch[:0]
	for _, x := range xs {
		r.scratch = append(r.scratch, hotdep.Fast(x))
	}
	if len(r.scratch) > 1<<20 {
		//m5:coldpath overflow guard: the declared slow path may allocate.
		r.scratch = grow(r.scratch)
	}
	return double(len(r.scratch))
}

//m5:hotpath
func double(n int) int { return n * 2 }

func grow(s []int) []int { return append(make([]int, 0, 2*cap(s)+1), s...) }

// PointerSink passes pointer-shaped values into interface holes, which
// does not box.
//
//m5:hotpath
func PointerSink(r *Results, sink func(any)) {
	sink(r)
}

// Ticker is dispatched dynamically; the callee cannot be resolved
// statically and is left to the AllocsPerRun gates.
type Ticker interface{ Tick() }

// Drive calls through an interface.
//
//m5:hotpath
func Drive(t Ticker) { t.Tick() }
