package sim

import (
	"fmt"

	"m5/internal/cache"
	"m5/internal/cxl"
	"m5/internal/stats"
	"m5/internal/tiermem"
	"m5/internal/workload"
)

// Checkpoint is a deep-cloned snapshot of a warmed runner: the generator's
// replay position plus the full machine state (memory system, CXL
// controller, cache hierarchy, latency reservoir, and the runner's own
// clocks and counters). Experiment harnesses warm one runner per
// (workload, scale, seed) cell, checkpoint it, and Fork per-policy cells
// from the checkpoint instead of re-simulating the warmup — each fork
// continues bit-identically to a from-scratch runner warmed the same way.
type Checkpoint struct {
	cfg Config
	gen workload.Checkpoint
	// reopen, when the checkpointed generator supports it (tape replay
	// cursors do), forks the access stream by an O(1) seek instead of
	// NewAt's rebuild-and-fast-forward.
	reopen workload.Reopener
	sys    tiermem.SystemSnapshot
	ctrl   cxl.Snapshot
	cache  cache.Snapshot
	opLat  stats.ReservoirSnapshot
	// footprint is the workload's byte footprint, captured at checkpoint
	// time so checkpoint caches can size per-fork daemons without
	// reopening the generator.
	footprint uint64

	clockNs    uint64
	nextCtx    uint64
	opStart    uint64
	accesses   uint64
	dramReads  [2]uint64
	dramWrites [2]uint64
	// estPrior carries the sampled tier's measured mean user-side
	// ns/access into forks, so short forked spans can run thinned
	// (always 0 for exact-mode runners).
	estPrior float64
}

// Checkpoint captures the runner's state. It refuses runners whose state
// extends beyond the engine's deep-clone reach: an installed daemon or
// word remapper, attached miss sinks, bandwidth queues, co-running cores,
// a metrics registry, or a generator not built through the workload
// catalog.
// The intended protocol is: build a bare runner, warm it, checkpoint, then
// install per-policy state on each fork.
func (r *Runner) Checkpoint() (*Checkpoint, error) {
	switch {
	case r.daemon != nil:
		return nil, fmt.Errorf("sim: cannot checkpoint a runner with a daemon installed")
	case r.remap != nil:
		return nil, fmt.Errorf("sim: cannot checkpoint a runner with a word remapper installed")
	case len(r.sinks) > 0:
		return nil, fmt.Errorf("sim: cannot checkpoint a runner with miss sinks attached")
	case r.queue != nil:
		return nil, fmt.Errorf("sim: cannot checkpoint a runner with bandwidth queues")
	case len(r.cores) > 1:
		return nil, fmt.Errorf("sim: cannot checkpoint a runner with co-running cores")
	case r.metrics != nil:
		return nil, fmt.Errorf("sim: cannot checkpoint a runner with a metrics registry")
	}
	genCp, ok := workload.CheckpointOf(r.gen)
	if !ok {
		return nil, fmt.Errorf("sim: workload %q does not support replay checkpoints", r.gen.Name())
	}
	reopen, _ := r.gen.(workload.Reopener)
	return &Checkpoint{
		cfg:        r.cfg,
		gen:        genCp,
		reopen:     reopen,
		footprint:  r.gen.Footprint(),
		sys:        r.Sys.Snapshot(),
		ctrl:       r.Ctrl.Snapshot(),
		cache:      r.Cache.Snapshot(),
		opLat:      r.opLat.Snapshot(),
		clockNs:    r.clockNs,
		nextCtx:    r.nextCtx,
		opStart:    r.opStart,
		accesses:   r.accesses,
		dramReads:  r.dramReads,
		dramWrites: r.dramWrites,
		estPrior:   r.estPrior,
	}, nil
}

// Footprint reports the checkpointed workload's footprint in bytes.
func (c *Checkpoint) Footprint() uint64 { return c.footprint }

// Fork builds a fresh runner positioned exactly at the checkpoint: a new
// generator fast-forwarded to the replay position, a machine rebuilt from
// the retained config, and every layer restored from the deep clones. The
// checkpoint can be forked any number of times; forks share no mutable
// state with each other or with the original runner. The caller installs
// the per-fork daemon afterwards (SetDaemon schedules its first tick from
// the restored clock) and owns closing the fork's generator.
func (c *Checkpoint) Fork() (*Runner, error) {
	var gen workload.Generator
	var err error
	if c.reopen != nil {
		gen, err = c.reopen.ReopenAt(c.gen.Consumed)
	} else {
		gen, err = workload.NewAt(c.gen)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: forking checkpoint: %w", err)
	}
	cfg := c.cfg
	cfg.Workload = gen
	r, err := NewRunner(cfg)
	if err != nil {
		gen.Close()
		return nil, fmt.Errorf("sim: forking checkpoint: %w", err)
	}
	r.Sys.Restore(c.sys)
	r.Ctrl.Restore(c.ctrl)
	r.Cache.Restore(c.cache)
	r.opLat.Restore(c.opLat)
	r.clockNs = c.clockNs
	r.nextCtx = c.nextCtx
	r.opStart = c.opStart
	r.accesses = c.accesses
	r.dramReads = c.dramReads
	r.dramWrites = c.dramWrites
	r.estPrior = c.estPrior
	return r, nil
}
