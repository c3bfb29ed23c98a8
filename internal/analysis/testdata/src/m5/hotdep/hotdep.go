// Package hotdep provides cross-package callees for the hotpath corpus:
// one annotated, one not. Nothing here is reported directly.
package hotdep

// Fast is part of the hot closure.
//
//m5:hotpath
func Fast(x int) int { return x &^ 1 }

// Slow is a setup-only helper and deliberately not annotated.
func Slow(x int) int {
	buf := make([]int, x)
	return len(buf)
}
