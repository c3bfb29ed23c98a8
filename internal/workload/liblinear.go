package workload

import "math/rand"

// LiblinearConfig parameterizes the Liblinear workload: dual coordinate
// descent for linear classification over a KDD2012-like sparse design
// matrix. The properties the paper measures: strongly skewed page
// popularity (Figure 10's steepest CDF — the weight vector's hot-feature
// pages dominate) and a mix of dense streamed sample pages with a sparse
// tail (Figure 4: 15% of pages ≤25% of words).
type LiblinearConfig struct {
	// Samples is the number of training examples.
	Samples uint64
	// Features is the dimensionality of the weight vector.
	Features uint64
	// Seed drives matrix synthesis and the visiting order.
	Seed int64
}

func (c LiblinearConfig) withDefaults() LiblinearConfig {
	if c.Samples == 0 {
		c.Samples = 1 << 15
	}
	if c.Features == 0 {
		c.Features = 1 << 14
	}
	return c
}

const (
	// nnzPerSample is the average non-zeros per example.
	nnzPerSample = 12
	// featureZipfS skews which features appear (KDD features are
	// heavy-tailed).
	featureZipfS = 1.1
)

// NewLiblinear builds the workload. Each epoch visits every sample in a
// shuffled order; per sample it streams the sample's index/value pairs
// (dense sequential), gathers the touched weights (skewed random), and
// scatters updated weights back.
func NewLiblinear(cfg LiblinearConfig) Generator {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, featureZipfS, 4, cfg.Features-1)

	// Synthesize the CSR design matrix.
	rowStart := make([]uint64, cfg.Samples+1)
	var idx []uint32
	for s := uint64(0); s < cfg.Samples; s++ {
		rowStart[s] = uint64(len(idx))
		nnz := nnzPerSample/2 + rng.Intn(nnzPerSample)
		for k := 0; k < nnz; k++ {
			idx = append(idx, uint32(zipf.Uint64()))
		}
	}
	rowStart[cfg.Samples] = uint64(len(idx))

	var l Layout
	xIdx := l.Place(uint64(len(idx)), 4) // feature indices
	xVal := l.Place(uint64(len(idx)), 8) // feature values
	w := l.Place(cfg.Features, 8)        // weight vector (hot, skewed)
	alpha := l.Place(cfg.Samples, 8)     // dual variables
	rowMeta := l.Place(cfg.Samples, 512) // per-sample record headers:
	// one word touched per 512B stride — the sparse tail of Figure 4.

	order := rng.Perm(int(cfg.Samples))
	prog := func(e *Emitter) {
		for {
			for _, oi := range order {
				s := uint64(oi)
				e.Load(rowMeta.At(s))
				e.Load(alpha.At(s))
				lo, hi := rowStart[s], rowStart[s+1]
				// Gradient: stream x_s, gather w.
				for i := lo; i < hi; i++ {
					e.Load(xIdx.At(i))
					e.Load(xVal.At(i))
					e.Load(w.At(uint64(idx[i])))
				}
				// Update: scatter w, store alpha.
				for i := lo; i < hi; i++ {
					e.Store(w.At(uint64(idx[i])))
				}
				e.Store(alpha.At(s))
			}
		}
	}
	return newBase("lib.", l.Footprint(), prog)
}

func init() {
	lib := func(scale Scale, seed int64) (Generator, error) {
		cfg := LiblinearConfig{Seed: seed}
		switch scale {
		case ScaleTiny:
			cfg.Samples, cfg.Features = 1<<12, 1<<11
		case ScaleSmall:
			cfg.Samples, cfg.Features = 1<<15, 1<<14
		case ScaleMedium:
			cfg.Samples, cfg.Features = 1<<17, 1<<15
		default:
			cfg.Samples, cfg.Features = 1<<19, 1<<17
		}
		return NewLiblinear(cfg), nil
	}
	Register("lib.", lib)
	Register("liblinear", lib)
}
