// Epoch fast-forward: between event horizons (daemon ticks and
// context-switch TLB flushes) the machine evolves without any scheduled
// intervention, so whole tape segments execute through three vectorized
// kernels instead of the scalar per-access loop:
//
//  1. translate (ffTranslate): resolves every virtual address through the
//     TLB/page-table model in stream order, exactly as the scalar loop
//     would — faults, shootdowns, and inline fault-hook promotions all
//     run here — while a running upper bound on the clock proves no event
//     horizon can fire before each non-final access. Consecutive accesses
//     to one page short-circuit through the TLB memo (TLB.RepeatHit).
//  2. classify (cache.AccessBatch): runs the physical stream through the
//     cache hierarchy in one pass over the packed tag/LRU arrays,
//     emitting a class byte per access plus an ordered writeback stream.
//  3. commit (ffCommit): replays the exact clock arithmetic — serve
//     latencies, writeback charges, DRAM/CXL device traffic, sink
//     observes, op-latency samples, kernel-time attribution — and runs
//     the (possibly firing) event checks on the segment's final access
//     only; interior accesses provably cannot fire them.
//
// Soundness of the truncation: the scalar loop evaluates the ctx/tick
// checks at the access's post-serve clock (kernel time is added after
// the checks). ffTranslate tracks ub, an upper bound on that clock,
// using the actual translate extra time, the actual kernel delta, and
// static bounds for the serve phase (Runner.maxServeNs) and the sink
// observe charges (5 observes × Σ sink bounds). An access is interior
// only if ub stayed below the horizon at both its post-serve and
// post-kernel checkpoints — so no interior access can reach an event
// horizon, and reordering its device/sink work after the remaining
// translations is invisible: translations never read tracker, cache, or
// bandwidth state, and sinks/devices never change translations (every
// mutation that could — migration, flush — is an event).
//
// The result is byte-identical to exact mode on every headline metric
// and obs counter; the equivalence tests pin this property.
package sim

import (
	"m5/internal/cache"
	"m5/internal/mem"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/workload"
)

// ffState is the fast-forward engine's reusable scratch, sized once for
// the runner's batch size so the per-batch paths never allocate.
type ffState struct {
	cols workload.Columns
	// Per-access translate results, indexed relative to the segment
	// start: physical address, page-walk extra latency, kernel delta.
	phys  []mem.PhysAddr
	extra []uint64
	kern  []uint64
	// writes is the segment-relative write bitset handed to the cache
	// classify kernel (re-aligned from the batch-relative cols bitset).
	writes []uint64
	class  []cache.AccessClass
	wb     []mem.PhysAddr
	// opIdx cursors cols.OpEnds across the segments of one batch.
	opIdx int
	// memoVPN/memoBase mirror the TLB memo: the page and frame base of
	// the most recent full translation. Trustworthy only when
	// TLB.RepeatHit(memoVPN) succeeds — every frame change shoots down
	// the TLB entry, which drops the memo.
	memoVPN  tiermem.VPN
	memoBase mem.PhysAddr
	memoOK   bool
}

// ffInit builds the engine scratch (once per runner).
func (r *Runner) ffInit() *ffState {
	ff := &ffState{
		phys:   make([]mem.PhysAddr, r.batchSize),
		extra:  make([]uint64, r.batchSize),
		kern:   make([]uint64, r.batchSize),
		writes: make([]uint64, (r.batchSize+63)>>6),
		class:  make([]cache.AccessClass, r.batchSize),
		wb:     make([]mem.PhysAddr, 0, 64),
	}
	ff.cols.Grow(r.batchSize)
	r.ffs = ff
	return ff
}

// stepBatchFF is StepBatch's fast-forward body: pull one columnar batch
// and execute all of it, segment by segment, before returning — the
// runner never holds pulled-but-unexecuted accesses across calls, so
// generator checkpoints (Consumed counts) stay in lockstep with exact
// mode.
//
//m5:hotpath
func (r *Runner) stepBatchFF(max int) int {
	ff := r.ffs
	if ff == nil {
		//m5:coldpath one-time scratch construction on first engaged batch.
		ff = r.ffInit()
	}
	want := max
	if want > r.batchSize {
		want = r.batchSize
	}
	n := workload.NextColumns(r.gen, r.batch, &ff.cols, want)
	if n == 0 {
		return 0
	}
	ff.opIdx = 0
	for s := 0; s < n; {
		m := r.ffTranslate(ff, s, n)
		wbs := r.Cache.AccessBatch(ff.phys[:m], ff.writes, ff.class[:m], ff.wb[:0])
		ff.wb = wbs[:0]
		r.ffCommit(ff, s, m, wbs)
		s += m
	}
	return n
}

// ffTranslate resolves accesses [s, n) of the batch in stream order
// until the clock upper bound reaches the next event horizon, and
// returns the segment length m >= 1. Accesses [s, s+m-1) provably fire
// no ctx flush or daemon tick; access s+m-1 may, and ffCommit runs the
// exact checks on it.
//
//m5:hotpath
func (r *Runner) ffTranslate(ff *ffState, s, n int) int {
	var (
		base    = r.base.Addr()
		tlb     = r.Sys.TLB(0)
		horizon = ^uint64(0)
		maxObs  = 5 * r.sinkBoundNs
		tr      tiermem.TranslateResult
	)
	if r.daemon != nil && r.nextTick < horizon {
		horizon = r.nextTick
	}
	if r.ctxNs > 0 && r.nextCtx < horizon {
		horizon = r.nextCtx
	}
	ub := r.clockNs
	m := 0
	for i := s; i < n; i++ {
		j := i - s
		if j&63 == 0 {
			ff.writes[uint(j)>>6] = 0
		}
		write := ff.cols.Writes[uint(i)>>6]&(1<<(uint(i)&63)) != 0
		if write {
			ff.writes[uint(j)>>6] |= 1 << (uint(j) & 63)
		}
		va := base + tiermem.VirtAddr(ff.cols.Offs[i])
		v := va.Page()
		if ff.memoOK && v == ff.memoVPN && tlb.RepeatHit(v) {
			// Same page as the last full translation and the TLB entry is
			// untouched: the frame cannot have changed (migration always
			// shoots down), so this is exactly the scalar TLB-hit path.
			ff.phys[j] = ff.memoBase + mem.PhysAddr(va.Offset())
			ff.extra[j] = 0
			ff.kern[j] = 0
			ub += r.maxServeNs
		} else {
			kernelBefore := r.Sys.KernelNs()
			r.Sys.TranslateInto(0, va, write, &tr)
			ff.phys[j] = tr.Phys
			ff.extra[j] = tr.ExtraNs
			ff.kern[j] = r.Sys.KernelNs() - kernelBefore
			ff.memoVPN = v
			ff.memoBase = tr.Phys - mem.PhysAddr(va.Offset())
			ff.memoOK = true
			ub += tr.ExtraNs + r.maxServeNs
		}
		m = j + 1
		// Post-serve checkpoint: bounds the clock at which this access
		// evaluates the ctx/tick checks in the scalar loop.
		if ub >= horizon {
			break
		}
		// Post-kernel checkpoint: bounds the clock the next access starts
		// from (translate kernel plus worst-case sink observe charges).
		ub += ff.kern[j] + maxObs
		if ub >= horizon {
			break
		}
	}
	return m
}

// ffCommit replays the exact per-access clock arithmetic and side
// effects for segment [s, s+m) using the translate results and cache
// classes, mirroring runBatch step for step. Only the final access runs
// the ctx/tick event checks — interior accesses were proven unable to
// fire them.
//
//m5:hotpath
func (r *Runner) ffCommit(ff *ffState, s, m int, wbs []mem.PhysAddr) {
	var (
		hasSinks = len(r.sinks) > 0
		daemon   = r.daemon
		ctxOn    = r.ctxNs > 0
		ops      = ff.cols.OpEnds
		scratch  trace.Access
		wbPos    = 0
	)
	for j := 0; j < m; j++ {
		r.accesses++
		kern := ff.kern[j]
		r.clockNs += ff.extra[j]
		c := ff.class[j]
		phys := ff.phys[j]
		if lvl := c.Level(); lvl != cache.HitMemory {
			r.clockNs += r.latHit[lvl]
		} else {
			node := r.Sys.NodeOfAddr(phys)
			r.Sys.Node(node).CountRead() //m5:unitcredit exact replay commit: one access, weight 1
			r.dramReads[node]++
			r.clockNs += r.dramReadLatency(node, phys)
			if node == tiermem.NodeCXL || hasSinks {
				write := ff.writes[uint(j)>>6]&(1<<(uint(j)&63)) != 0
				scratch = trace.Access{Time: r.clockNs, Addr: phys, Write: write}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact replay commit: one access, weight 1
				}
				if hasSinks {
					kernelBefore := r.Sys.KernelNs()
					r.sinks.Observe(scratch) //m5:unitcredit exact replay commit: one access, weight 1
					kern += r.Sys.KernelNs() - kernelBefore
				}
			}
		}
		for k := c.Writebacks(); k > 0; k-- {
			wb := wbs[wbPos]
			wbPos++
			node := r.Sys.CountDRAMAccess(wb, true)
			r.dramWrites[node]++
			r.clockNs += r.costs.DRAMWriteNs
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: r.clockNs, Addr: wb, Write: true}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact replay commit: one access, weight 1
				}
				if hasSinks {
					kernelBefore := r.Sys.KernelNs()
					r.sinks.Observe(scratch) //m5:unitcredit exact replay commit: one access, weight 1
					kern += r.Sys.KernelNs() - kernelBefore
				}
			}
		}
		if c.Prefetched() {
			pf := (phys &^ (mem.WordSize - 1)) + mem.WordSize
			node := r.Sys.CountDRAMAccess(pf, false)
			r.dramReads[node]++
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: r.clockNs, Addr: pf}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.Access(scratch) //m5:unitcredit exact replay commit: one access, weight 1
				}
				if hasSinks {
					kernelBefore := r.Sys.KernelNs()
					r.sinks.Observe(scratch) //m5:unitcredit exact replay commit: one access, weight 1
					kern += r.Sys.KernelNs() - kernelBefore
				}
			}
		}
		if ff.opIdx < len(ops) && int(ops[ff.opIdx]) == s+j {
			ff.opIdx++
			r.opLat.Add(float64(r.clockNs - r.opStart))
			r.opStart = r.clockNs
		}
		if j == m-1 {
			if ctxOn && r.clockNs >= r.nextCtx {
				r.Sys.TLB(0).Flush()
				r.nextCtx = r.clockNs + r.ctxNs
			}
			if daemon != nil && r.clockNs >= r.nextTick {
				tickKernelBefore := r.Sys.KernelNs()
				daemon.Tick(r.clockNs)
				r.nextTick = r.clockNs + daemon.PeriodNs()
				tick := r.Sys.KernelNs() - tickKernelBefore
				r.obsTickKernel.Observe(tick)
				kern += tick
			}
		}
		r.clockNs += kern
	}
}
