package analysis_test

import (
	"testing"

	"m5/internal/analysis"
	"m5/internal/analysis/analysistest"
)

// Each corpus runs under the full suite, so a positive package proves
// its analyzer fires and every negative package doubles as a
// no-false-positives check for all five analyzers at once.

func TestDeterminismCorpus(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.All(),
		"m5/internal/sim/determbad",
		"m5/internal/sim/determgood",
	)
}

func TestHotpathCorpus(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.All(),
		"m5/hotbad",
		"m5/hotgood",
		"m5/hotmarkers",
	)
}

func TestObsScopeCorpus(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.All(),
		"m5/obsuse",
	)
}

func TestPlumbingCorpus(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.All(),
		"m5/internal/experiments/plumbbad",
		"m5/internal/experiments/plumbgood",
	)
}

func TestLockdisciplineCorpus(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.All(),
		"m5/internal/serve/lockbad",
		"m5/internal/serve/lockgood",
	)
}
