package stats

import "math/rand"

// CountedSource is a seeded math/rand source that counts its draws. The
// standard generator's state cannot be copied out, but a source built
// from the same seed and advanced by the same number of draws continues
// the identical stream, so the count is all a clone needs. The
// generator itself, about 5 KB seeded word by word, is built at the
// first draw and replays any draws a clone inherited, so a source that
// never draws costs neither. The rand.Rand methods its users call
// (Uint64, and Intn with a power-of-two bound) take one draw each.
type CountedSource struct {
	seed  int64
	draws uint64
	src   rand.Source64 // nil until the first draw
}

// NewCountedSource returns a source at the start of seed's stream.
func NewCountedSource(seed int64) *CountedSource { return &CountedSource{seed: seed} }

// Clone returns an independent source at the same stream position.
func (c *CountedSource) Clone() *CountedSource {
	return &CountedSource{seed: c.seed, draws: c.draws}
}

// replay builds the generator and advances it to the recorded position.
func (c *CountedSource) replay() {
	c.src = rand.NewSource(c.seed).(rand.Source64)
	for i := uint64(0); i < c.draws; i++ {
		c.src.Uint64()
	}
}

// Uint64 implements rand.Source64.
//
//m5:hotpath
func (c *CountedSource) Uint64() uint64 {
	if c.src == nil {
		//m5:coldpath first draw: build the generator at the recorded position.
		c.replay()
	}
	c.draws++
	return c.src.Uint64()
}

// Int63 implements rand.Source.
func (c *CountedSource) Int63() int64 {
	if c.src == nil {
		c.replay()
	}
	c.draws++
	return c.src.Int63()
}

// Seed implements rand.Source: the stream restarts from seed.
func (c *CountedSource) Seed(seed int64) {
	c.seed, c.draws, c.src = seed, 0, nil
}
