package hotmarkers

// Make has no cold exit. a.go marks line 11 //m5:coldpath, but that
// marker governs a.go's text only, so the allocation on line 12 here
// is still a finding.
//
//m5:hotpath
func Make(n int) []int {
	if n < 0 {
		return nil
	}
	return make([]int, n) // want "make allocates in hotpath function"
}
