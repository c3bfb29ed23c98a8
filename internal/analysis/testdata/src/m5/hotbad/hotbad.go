// Package hotbad seeds one instance of every hotpath violation class.
package hotbad

import (
	"fmt"

	"m5/hotdep"
)

type point struct{ x, y int }

func helper(n int) int { return n }

var sink any

// Alloc exercises the allocating expression forms.
//
//m5:hotpath
func Alloc(n int) {
	_ = make([]int, n) // want "make allocates in hotpath function"
	_ = new(point)     // want "new allocates in hotpath function"
	_ = []int{n}       // want "slice literal allocates in hotpath function"
	_ = map[int]int{}  // want "map literal allocates in hotpath function"
	_ = &point{x: n}   // want "&composite literal escapes to the heap"
}

// Calls exercises the callee discipline.
//
//m5:hotpath
func Calls(n int) {
	helper(n)            // want "call to non-hotpath function helper from hotpath function"
	hotdep.Slow(n)       // want "call to non-hotpath function m5/hotdep.Slow from hotpath function"
	fmt.Sprintf("%d", n) // want "call to fmt.Sprintf in hotpath function" "conversion of int to interface"
}

// Stmts exercises the banned statement forms.
//
//m5:hotpath
func Stmts(ch chan int) {
	go helper(1)    // want "go statement in hotpath function"
	defer helper(2) // want "defer in hotpath function"
	ch <- 1         // want "channel send in hotpath function"
	<-ch            // want "channel receive in hotpath function"
}

// Sel exercises select.
//
//m5:hotpath
func Sel(ch chan int) {
	select { // want "select in hotpath function"
	default:
	}
}

// Concat exercises string building and closures.
//
//m5:hotpath
func Concat(a, b string) int {
	s := a + b                        // want "string concatenation allocates"
	f := func() int { return len(s) } // want "closure captures s in hotpath function"
	return f()
}

// BadAppend grows a slice outside the scratch discipline.
//
//m5:hotpath
func BadAppend(dst, src []int) []int {
	dst = append(src, 1) // want "append outside the scratch discipline"
	return dst
}

type counter struct{ n int }

//m5:hotpath
func (c *counter) inc() { c.n++ }

// MethodValue binds a method to its receiver, which allocates.
//
//m5:hotpath
func MethodValue(c *counter) func() {
	return c.inc // want "method value allocates in hotpath function"
}

// Box stores an int into an interface, which boxes it.
//
//m5:hotpath
func Box(n int) {
	sink = n // want "conversion of int to interface"
}

// Bytes copies a string into a fresh byte slice.
//
//m5:hotpath
func Bytes(s string) []byte {
	return []byte(s) // want "conversion copies in hotpath function"
}
