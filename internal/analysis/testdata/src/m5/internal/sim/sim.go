// Package sim is a corpus stub standing in for the real simulator
// package at its import path, so the plumbing analyzer resolves
// sim.Config and sim.SamplingConfig. Its own code must stay clean: the
// path is inside the determinism scope.
package sim

// Config is the corpus stand-in for the simulator's machine config.
type Config struct {
	DRAMSize int
	CXLSize  int
	Speed    int
}

// SamplingConfig is the corpus stand-in for the sampled-tier geometry.
type SamplingConfig struct {
	Mode   int
	Window int
	Stride int
}
