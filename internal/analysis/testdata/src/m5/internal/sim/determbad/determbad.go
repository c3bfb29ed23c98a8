// Package determbad seeds determinism violations: every construct here
// must be reported by the determinism analyzer.
package determbad

import (
	"math/rand"
	"time"
)

// Stamp reads the wall clock twice.
func Stamp() time.Duration {
	start := time.Now()      // want "call to time.Now in simulation code"
	return time.Since(start) // want "call to time.Since in simulation code"
}

// Roll draws from the package-global generator.
func Roll() float64 {
	return rand.Float64() // want "use of package-global math/rand.Float64"
}

// Keys collects map keys without sorting them afterwards.
func Keys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k) // want "append inside map iteration collects values in map order"
	}
	return out
}

// First returns an arbitrary map element.
func First(m map[string]int) (string, int) {
	for k, v := range m {
		return k, v // want "return inside map iteration"
	}
	return "", 0
}

// Last keeps whichever key the runtime visits last.
func Last(m map[string]int) string {
	var last string
	for k := range m {
		last = k // want "assignment of a loop-dependent value to outer variable last"
	}
	return last
}

// Leak hands loop values to an opaque callee in visit order.
func Leak(m map[string]int, f func(string)) {
	for k := range m {
		f(k) // want "map iteration order escapes through call arguments"
	}
}

// Publish streams map values over a channel in visit order.
func Publish(m map[string]int, ch chan int) {
	for _, v := range m {
		ch <- v // want "channel send inside map iteration"
	}
}

// Spawn schedules goroutines in visit order.
func Spawn(m map[string]int, f func(string)) {
	for k := range m {
		go f(k) // want "go/defer inside map iteration"
	}
}

// WindowOffset places a sampling window by drawing from the package-global
// generator: two runs of the same config would measure different windows.
func WindowOffset(period int) int {
	return rand.Intn(period) // want "use of package-global math/rand.Intn"
}

// PromoteDense promotes every dense unit in map order. Once capacity runs
// short, the visit order decides which units move.
func PromoteDense(hits map[uint64]int, dense int, promote func(uint64) error) int {
	n := 0
	for head, h := range hits {
		if h < dense {
			continue
		}
		if err := promote(head); err == nil { // want "map iteration order escapes through call arguments"
			n++
		}
	}
	return n
}

// Score assigns each key's score in visit order: score may count calls
// or read state an earlier call changed.
func Score(m map[string]int, score func(string) int) map[string]int {
	out := make(map[string]int, len(m))
	for k := range m {
		v := score(k) // want "map iteration order escapes through call arguments"
		out[k] = v
	}
	return out
}

// Admit asks an admission predicate in visit order; a stateful predicate
// admits a different set on each run.
func Admit(m map[string]int, admit func(string) bool) int {
	n := 0
	for k := range m {
		if admit(k) { // want "map iteration order escapes through call arguments"
			n++
		}
	}
	return n
}

// Classify dispatches on a method of each visited value.
func Classify(m map[string]interface{ Kind() int }) int {
	hot := 0
	for _, v := range m {
		switch v.Kind() { // want "map iteration order escapes through a method call on the iterated value"
		case 1:
			hot++
		}
	}
	return hot
}

// WeightedTotal folds float weights in visit order: float addition is
// not associative, so each order rounds to a different total.
func WeightedTotal(m map[string]int) float64 {
	var s float64
	for _, v := range m {
		s += float64(v) * 0.1 // want "float accumulation into s inside map iteration"
	}
	return s
}

// Tally folds a per-key cost into a total and a keyed table: addition
// commutes, but a stateful cost function sees the keys in visit order.
func Tally(m map[string]int, cost func(string) int) (int, map[string]int) {
	n, per := 0, map[string]int{}
	for k := range m {
		n += cost(k)      // want "map iteration order escapes through call arguments"
		per[k] += cost(k) // want "map iteration order escapes through call arguments"
	}
	return n, per
}
