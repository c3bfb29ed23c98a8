package workload

// engine adapts a straight-line kernel (a Program that loads and stores
// through an Emitter) into a pull-based Generator. The kernel runs in its
// own goroutine, batching accesses through a channel; Close unwinds the
// kernel via a sentinel panic so no goroutine leaks.
//
// Kernels are written as ordinary Go loops over their data structures —
// BFS really runs BFS — which keeps the emitted address stream structurally
// faithful without hand-built state machines.

const batchSize = 4096

// Program is the body of a workload: an endless loop issuing accesses.
// It must only return when Emitter operations panic with stopSentinel
// (handled by the engine); well-behaved programs simply loop forever.
type Program func(e *Emitter)

type stopSentinel struct{}

// Emitter is the memory interface a Program uses.
type Emitter struct {
	batch []Access
	out   chan []Access
	stop  chan struct{}
}

// Load emits a read at the offset.
func (e *Emitter) Load(off uint64) { e.emit(Access{Offset: off}) }

// Store emits a write at the offset.
func (e *Emitter) Store(off uint64) { e.emit(Access{Offset: off, Write: true}) }

// EndOp marks the end of a client-visible operation on the most recently
// emitted access (per-op latency boundary for KVS workloads).
func (e *Emitter) EndOp() {
	if len(e.batch) > 0 {
		e.batch[len(e.batch)-1].OpEnd = true
	}
}

func (e *Emitter) emit(a Access) {
	e.batch = append(e.batch, a)
	if len(e.batch) >= batchSize {
		e.flush()
	}
}

func (e *Emitter) flush() {
	// Priority stop check: once Close has fired, terminate at the next
	// batch boundary instead of racing the consumer's drain loop. Without
	// it the select below picks pseudo-randomly between a drained send and
	// the closed stop channel, so a producer could keep generating batches
	// for an unbounded (though finite) time after Close.
	select {
	case <-e.stop:
		panic(stopSentinel{})
	default:
	}
	if len(e.batch) == 0 {
		return
	}
	select {
	case e.out <- e.batch:
		e.batch = make([]Access, 0, batchSize)
	case <-e.stop:
		panic(stopSentinel{})
	}
}

// base provides the Generator plumbing shared by every workload.
type base struct {
	name      string
	footprint uint64
	out       chan []Access
	stop      chan struct{}
	cur       []Access
	pos       int
	closed    bool
	// consumed counts accesses handed to the consumer; together with the
	// catalog identity below it forms the generator's replay checkpoint.
	consumed uint64
	srcName  string
	srcScale Scale
	srcSeed  int64
	srcKnown bool
}

// newBase starts the program goroutine and returns the generator core.
func newBase(name string, footprint uint64, prog Program) *base {
	b := &base{
		name:      name,
		footprint: footprint,
		out:       make(chan []Access, 4),
		stop:      make(chan struct{}),
	}
	e := &Emitter{
		batch: make([]Access, 0, batchSize),
		out:   b.out,
		stop:  b.stop,
	}
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopSentinel); !ok {
					panic(r) // real kernel bug: propagate
				}
			}
			close(b.out)
		}()
		prog(e)
		// A program that returns (none should) still drains its tail.
		e.flush()
	}()
	return b
}

// Name implements Generator.
func (b *base) Name() string { return b.name }

// Footprint implements Generator.
func (b *base) Footprint() uint64 { return b.footprint }

// NextBatch implements Generator: bulk copies from the producer's
// batches so the engine pays one call (and no channel operation, most of
// the time) per buffer instead of per access.
func (b *base) NextBatch(buf []Access) int {
	n := 0
	for n < len(buf) {
		if b.pos >= len(b.cur) {
			batch, ok := <-b.out
			if !ok {
				break
			}
			b.cur, b.pos = batch, 0
			continue
		}
		c := copy(buf[n:], b.cur[b.pos:])
		n += c
		b.pos += c
	}
	b.consumed += uint64(n)
	return n
}

// Checkpoint implements Checkpointer.
func (b *base) Checkpoint() (Checkpoint, bool) {
	if !b.srcKnown {
		return Checkpoint{}, false
	}
	return Checkpoint{
		Name:     b.srcName,
		Scale:    b.srcScale,
		Seed:     b.srcSeed,
		Consumed: b.consumed,
	}, true
}

// Close implements Generator.
func (b *base) Close() {
	if b.closed {
		return
	}
	b.closed = true
	close(b.stop)
	// Drain so the producer unblocks and exits.
	for range b.out {
	}
}
