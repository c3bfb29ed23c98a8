// Package hotmarkers pins that //m5: markers govern lines of their own
// file only: b.go and c.go put other code on the lines where a.go
// declares its cold exits.
package hotmarkers

// Grow allocates only on its declared cold exit.
//
//m5:hotpath
func Grow(s []int) []int {
	if cap(s) == 0 {
		//m5:coldpath first call builds the buffer.
		s = make([]int, 0, 8)
	}
	return s[:0]
}

// Reserve is Grow's twin, on the lines c.go annotates.
//
//m5:hotpath
func Reserve(s []int) []int {
	if cap(s) == 0 {
		//m5:coldpath first call builds the buffer.
		s = make([]int, 0, 8)
	}
	return s[:0]
}
