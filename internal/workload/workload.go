// Package workload implements the twelve memory-intensive benchmarks of
// the paper's evaluation (Table 3) as synthetic-but-structural access
// generators: the GAP graph kernels (BFS, SSSP, PR, CC, BC, TC) run as
// real algorithms over synthetic Kronecker graphs; the SPEC CPU 2017
// workloads (mcf_r, cactuBSSN_r, fotonik3d_r, roms_r) as kernels with the
// same data layout and sweep structure; Redis as a slab-allocated
// key-value store driven by YCSB-A; and Liblinear as sparse dual
// coordinate descent over a synthetic KDD-like design matrix.
//
// Generators emit virtual-address accesses relative to their own arena
// (offset 0 is the workload's first byte); the simulator maps the arena
// onto the tiered-memory system. What matters for every reproduced figure
// is the page-access distribution (skew, sparsity, phase behaviour), which
// these generators preserve and the package tests pin.
package workload

import "fmt"

// Access is one memory operation at a byte offset within the workload's
// arena.
type Access struct {
	Offset uint64
	Write  bool
	// OpEnd marks the last access of a client-visible operation; the
	// simulator uses it to measure per-operation latency (Redis p99).
	// Batch workloads leave it false.
	OpEnd bool
}

// Generator produces an unbounded access stream in batches; one access is
// a batch of one. Implementations are not safe for concurrent use. Close
// releases the producer; it is safe to call more than once.
type Generator interface {
	// Name identifies the benchmark (matches the paper's Table 3 names).
	Name() string
	// Footprint is the arena size in bytes.
	Footprint() uint64
	// NextBatch fills buf with the next accesses of the stream and
	// returns how many were written. A return of 0 means the stream has
	// ended, which happens only after Close.
	NextBatch(buf []Access) int
	// Close stops the generator.
	Close()
}

// NextBatch fills buf from g and returns how many accesses it wrote.
//
//m5:hotpath
func NextBatch(g Generator, buf []Access) int { return g.NextBatch(buf) }

// Skipper is implemented by generators that can discard accesses without
// decoding them: tape cursors jump whole committed blocks in O(1) and walk
// only a partial block's varints. Skipping advances the stream exactly as
// reading the same accesses would.
type Skipper interface {
	Generator
	// Skip discards up to len(scratch) accesses and returns how many
	// (0 = stream end) plus whether any of them ended an operation.
	// scratch is workspace the implementation may overwrite.
	Skip(scratch []Access) (n int, ops bool)
}

// Skip discards up to len(scratch) accesses from g, preferring the
// generator's skip path and otherwise reading them into scratch and
// scanning for operation ends. The stream position afterwards is the same
// either way. It returns the count discarded and whether an operation
// boundary was crossed.
//
//m5:hotpath
func Skip(g Generator, scratch []Access) (int, bool) {
	if s, ok := g.(Skipper); ok {
		return s.Skip(scratch)
	}
	n := NextBatch(g, scratch)
	for i := range scratch[:n] {
		if scratch[i].OpEnd {
			return n, true
		}
	}
	return n, false
}

// Checkpoint is a generator's replay state: catalog identity plus stream
// position. Generators are deterministic functions of (Name, Scale, Seed),
// so the position fully determines the remaining stream — NewAt rebuilds
// the instance and fast-forwards, which is how warmed simulator
// checkpoints fork fresh copies of their access stream.
type Checkpoint struct {
	Name  string
	Scale Scale
	Seed  int64
	// Consumed is how many accesses have been drawn from the stream.
	Consumed uint64
}

// Checkpointer is implemented by generators whose stream position can be
// captured for deterministic replay.
type Checkpointer interface {
	// Checkpoint returns the replay state; ok=false when the generator
	// was not built through the catalog (New) and cannot be rebuilt.
	Checkpoint() (Checkpoint, bool)
}

// Reopener is implemented by generators that can cheaply produce an
// independent second generator positioned at an absolute stream offset —
// cheaper than NewAt's rebuild-and-fast-forward. Tape cursors are the
// canonical implementation: reopening is an index seek into the recorded
// stream. The reopened generator emits exactly the stream a fresh catalog
// instance would emit after consuming the first `consumed` accesses.
type Reopener interface {
	ReopenAt(consumed uint64) (Generator, error)
}

// CheckpointOf captures g's replay state when supported.
func CheckpointOf(g Generator) (Checkpoint, bool) {
	if c, ok := g.(Checkpointer); ok {
		return c.Checkpoint()
	}
	return Checkpoint{}, false
}

// NewAt rebuilds a generator from a checkpoint: a fresh catalog instance
// fast-forwarded past the consumed prefix, emitting exactly the stream the
// checkpointed generator would emit next.
func NewAt(cp Checkpoint) (Generator, error) {
	g, err := New(cp.Name, cp.Scale, cp.Seed)
	if err != nil {
		return nil, err
	}
	var buf [batchSize]Access
	for left := cp.Consumed; left > 0; {
		want := uint64(len(buf))
		if left < want {
			want = left
		}
		n := NextBatch(g, buf[:want])
		if n == 0 {
			g.Close()
			return nil, fmt.Errorf("workload: %q stream ended %d accesses before checkpoint position", cp.Name, left)
		}
		left -= uint64(n)
	}
	return g, nil
}

// Array is a typed region inside a workload arena: element i lives at
// Base + i*Elem. Workload kernels address their data structures through
// Arrays so the emitted offsets mirror the real memory layout.
type Array struct {
	Base uint64
	Elem uint64
	N    uint64
}

// At returns the byte offset of element i. It panics on out-of-bounds
// access — a kernel bug.
func (a Array) At(i uint64) uint64 {
	if i >= a.N {
		panic(fmt.Sprintf("workload: index %d out of range (array of %d)", i, a.N))
	}
	return a.Base + i*a.Elem
}

// Size returns the array extent in bytes.
func (a Array) Size() uint64 { return a.N * a.Elem }

// Layout assigns consecutive page-aligned arrays inside an arena.
type Layout struct {
	next uint64
}

// Place reserves a page-aligned array of n elements of elem bytes.
func (l *Layout) Place(n, elem uint64) Array {
	a := Array{Base: l.next, Elem: elem, N: n}
	l.next += a.Size()
	// Page-align the next array so arrays never share pages.
	const pageMask = 4096 - 1
	l.next = (l.next + pageMask) &^ uint64(pageMask)
	return a
}

// Footprint returns the total bytes reserved so far.
func (l *Layout) Footprint() uint64 { return l.next }
