package hotmarkers

// Sum adds xs in order.
func Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Total adds the values of m. Its order note sits on line 22, the
// line of a.go's second //m5:coldpath marker. Markers are keyed by
// file and line, so the note must not displace a.go's marker: were the
// two to collide, the declared cold exit in a.go's Reserve would be
// reported as an allocation.
func Total(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	//m5:orderinvariant the sum above does not depend on map order.
	return n
}
