// Package experiments is a corpus stub that stands in for the real
// experiments package at its import path, so the plumbing analyzer
// resolves experiments.Params. Its own code must stay clean: the import
// path is also inside the determinism analyzer's scope.
package experiments

// Params is the corpus stand-in for the sweep parameter block; the
// plumbing analyzer watches it.
type Params struct {
	Accesses int
	Warmup   int
	Seed     int64
}
