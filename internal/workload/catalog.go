package workload

import (
	"fmt"
	"sort"
	"strings"
)

// Scale selects how large a benchmark instance to build. The paper's
// instances have 5-7GB footprints; the reproduction scales them down
// (preserving structure and distributions) so experiments run in seconds.
// Tier capacities in the experiment harnesses scale along with the
// footprint, keeping the DDR:footprint ratio of the paper (§6: 3GB DDR for
// ~6-8GB footprints, so roughly half the pages fit in fast memory).
type Scale int

// Scales, smallest to largest.
const (
	// ScaleTiny is for unit tests (sub-MB footprints).
	ScaleTiny Scale = iota
	// ScaleSmall is for integration tests (a few MB).
	ScaleSmall
	// ScaleMedium is for the experiment harnesses (tens of MB).
	ScaleMedium
	// ScaleLarge is for benchmarks (~100MB footprints).
	ScaleLarge
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case ScaleTiny:
		return "tiny"
	case ScaleSmall:
		return "small"
	case ScaleMedium:
		return "medium"
	case ScaleLarge:
		return "large"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale maps a scale name ("tiny", "small", "medium", "large") to
// its Scale — the inverse of String, shared by the m5bench flag and the
// m5serve query parameters.
func ParseScale(name string) (Scale, error) {
	for s := ScaleTiny; s <= ScaleLarge; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown scale %q (tiny, small, medium, large)", name)
}

// Names lists the twelve evaluated benchmarks in the paper's Figure 3/8/9
// order.
func Names() []string {
	return []string{
		"lib.", "bc", "bfs", "cc", "pr", "sssp", "tc",
		"cactu", "foto", "mcf", "roms", "redis",
	}
}

// A Builder constructs one catalog benchmark at a scale and seed.
type Builder func(scale Scale, seed int64) (Generator, error)

// builders is the name-keyed catalog. Entries are added by Register from
// init funcs in the file that owns each generator, so the vocabulary is
// complete before any flag parsing; TestCatalogRegisteredCoversNames
// pins it.
var builders = map[string]Builder{}

// Register adds a benchmark under a catalog name. Aliases register the
// same Builder under each spelling. It panics on an empty or duplicate
// name: both are programmer errors that must fail at process start.
func Register(name string, b Builder) {
	if name == "" {
		panic("workload: Register with empty name")
	}
	if b == nil {
		panic("workload: Register " + name + " with nil Builder")
	}
	if _, dup := builders[name]; dup {
		panic("workload: duplicate Register of " + name)
	}
	builders[name] = b
}

// Registered returns every registered catalog name, sorted — the full
// vocabulary, aliases included, unlike the figure-ordered Names.
func Registered() []string {
	out := make([]string, 0, len(builders))
	for name := range builders {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// graphScale returns (log2 vertices, avg degree) per scale.
func graphScale(s Scale) (int, int) {
	switch s {
	case ScaleTiny:
		return 9, 8
	case ScaleSmall:
		return 12, 16
	case ScaleMedium:
		return 15, 16
	default:
		return 17, 16
	}
}

// New builds a benchmark by its catalog name at the given scale. The seed
// makes the instance (graph, request stream, matrix) deterministic.
// Generators built here support replay checkpoints (Checkpointer) because
// the catalog identity is enough to rebuild them.
func New(name string, scale Scale, seed int64) (Generator, error) {
	g, err := build(name, scale, seed)
	if err != nil {
		return nil, err
	}
	if b, ok := g.(*base); ok {
		b.srcName = name
		b.srcScale = scale
		b.srcSeed = seed
		b.srcKnown = true
	}
	return g, nil
}

func build(name string, scale Scale, seed int64) (Generator, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q (registered: %s)", name, strings.Join(Registered(), ", "))
	}
	return b(scale, seed)
}

func specDim(s Scale) int {
	switch s {
	case ScaleTiny:
		return 16
	case ScaleSmall:
		return 24
	case ScaleMedium:
		return 48
	default:
		return 80
	}
}

func kvsKeys(s Scale) uint64 {
	switch s {
	case ScaleTiny:
		return 1 << 12
	case ScaleSmall:
		return 1 << 15
	case ScaleMedium:
		return 1 << 17
	default:
		return 1 << 19
	}
}

// MustNew builds a benchmark or panics; for tests and examples.
func MustNew(name string, scale Scale, seed int64) Generator {
	g, err := New(name, scale, seed)
	if err != nil {
		panic(err)
	}
	return g
}
