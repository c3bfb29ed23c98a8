// Tiered-fidelity execution (SMARTS-style sampled simulation): a sampled
// Run alternates *functional warming* stretches with periodic *detailed
// measurement* windows.
//
// Functional stretches keep every piece of architectural state evolving
// exactly as exact mode would — TLB fills and shootdowns, page-table
// accessed/dirty bits, cache tag/LRU state, tier residency counters, CXL
// device snoops (so PAC/WAC and the HPT/HWT trackers keep counting),
// miss-sink observes — but skip the per-access clock arithmetic: the
// simulated clock advances once per batch at the current estimate of
// mean ns/access, so daemon ticks and context-switch flushes still fire
// at their simulated-time cadence.
//
// Detailed windows run the unmodified exact engine (the same stepBatch
// path); each full window contributes one per-access-latency sample to a
// streaming Welford accumulator. The span's headline ElapsedNs is then
// estimated as mean(window ns/access) × accesses, with a Student-t
// confidence interval (internal/stats) reported on the Result.
//
// Unlike tapes and checkpoints, sampling is deliberately NOT
// byte-identical: the contract is statistical — the equivalence harness
// (experiments.SampleCoverage) runs sampled vs. exact across seeds and
// checks the exact value falls inside the declared interval at the
// configured confidence. Exact mode (Sampling.Mode unset or "exact") is
// untouched and stays byte-identical.
//
// Window placement is a pure function of config and seed: the first
// window offset is a splitmix64 hash of (Sampling.Seed, stream position
// at Run start) reduced mod the period; subsequent windows follow at a
// fixed stride (systematic sampling). No RNG state is consulted, so two
// runs of the same config and seed produce identical schedules, results,
// and obs counters — the determinism tests pin this.
package sim

import (
	"fmt"
	"math"

	"m5/internal/cache"
	"m5/internal/stats"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/workload"
)

// Sampling mode names (Config.Sampling.Mode). Empty means exact.
const (
	SampleModeExact   = "exact"
	SampleModeSampled = "sampled"
)

// Default sampling geometry: 4K-access detailed windows every 48K
// accesses, a state-exact functional warm prefix before each window, and
// 8x batch thinning in the stretches between. Chosen empirically so the
// default settings clear a 3x wall-clock speedup on the slowest harnesses
// while typical spans still collect ~10 windows per 500K accesses.
const (
	defaultDetailedWindow   = 4096
	defaultFunctionalStride = 45056
	// functionalThin subsamples the functional stretches at batch
	// granularity: 1 in functionalThin batches runs the full functional
	// kernel (translation, cache, device snoops) with its DRAM and tracker
	// traffic credited once per skipped neighbour (a Horvitz-Thompson
	// estimate, so traffic counters stay unbiased); the other batches only
	// advance the stream and the coarse clock.
	functionalThin = 8
	// warmPrefix is how many accesses before each detailed window run at
	// full functional fidelity regardless of thinning, so the window opens
	// on freshly-warmed cache and TLB state.
	warmPrefix = 4096
	// sampleMinWindows is the floor on measured windows before a TargetCI
	// early stop may trigger: t-intervals over fewer samples are too
	// fragile to act on.
	sampleMinWindows = 8
	// sampleConfidence is the confidence level of every reported
	// interval (and the TargetCI stop rule).
	sampleConfidence = 0.95
)

// SamplingConfig selects the engine's fidelity tier.
type SamplingConfig struct {
	// Mode is "" or "exact" for the byte-identical exact engine, or
	// "sampled" for SMARTS-style sampled execution.
	Mode string
	// DetailedWindow is the length (accesses) of each detailed
	// measurement window. Default 4096.
	DetailedWindow int
	// FunctionalStride is the length (accesses) of the functional-warming
	// stretch between windows. Default 45056 (so one window per 48K
	// accesses).
	FunctionalStride int
	// TargetCI, when positive, is a relative error budget: once at least
	// sampleMinWindows full windows are measured and the 95% CI
	// half-width falls below TargetCI × mean, the rest of the span runs
	// purely functional. Zero measures every scheduled window.
	TargetCI float64
	// Seed perturbs the first-window offset (systematic-sampling phase).
	// Window placement is a pure function of (Seed, config, stream
	// position); no RNG state is involved.
	Seed int64
}

// Enabled reports whether the config selects sampled execution.
func (s SamplingConfig) Enabled() bool { return s.Mode == SampleModeSampled }

// withDefaults fills the sampling geometry defaults.
//
//m5:plumb SamplingConfig ignore=Mode,TargetCI,Seed
func (s SamplingConfig) withDefaults() SamplingConfig {
	if !s.Enabled() {
		return s
	}
	if s.DetailedWindow == 0 {
		s.DetailedWindow = defaultDetailedWindow
	}
	if s.FunctionalStride == 0 {
		s.FunctionalStride = defaultFunctionalStride
	}
	return s
}

// validate rejects malformed sampling geometry.
//
//m5:plumb SamplingConfig ignore=Seed
func (s SamplingConfig) validate() error {
	switch s.Mode {
	case "", SampleModeExact, SampleModeSampled:
	default:
		return fmt.Errorf("sim: unknown sampling mode %q (want %q or %q)", s.Mode, SampleModeExact, SampleModeSampled)
	}
	if s.DetailedWindow < 0 || s.FunctionalStride < 0 {
		return fmt.Errorf("sim: sampling window %d / stride %d must be non-negative", s.DetailedWindow, s.FunctionalStride)
	}
	if s.TargetCI < 0 || s.TargetCI >= 1 {
		return fmt.Errorf("sim: sampling target CI %v must be in [0, 1)", s.TargetCI)
	}
	return nil
}

// SamplingInfo is attached to a Result produced by a sampled Run, so
// consumers can tell fidelity tiers apart and propagate the error budget.
type SamplingInfo struct {
	// Mode is SampleModeSampled (exact Results carry a nil *SamplingInfo).
	Mode string
	// WindowsMeasured is how many full detailed windows produced latency
	// samples this span.
	WindowsMeasured int
	// AccessesDetailed / AccessesFunctional split the span's accesses by
	// execution tier; AccessesSkipped is the subset of the functional
	// accesses that were batch-thinned (stream advanced, traffic credited
	// statistically by their simulated neighbours).
	AccessesDetailed   uint64
	AccessesFunctional uint64
	AccessesSkipped    uint64
	// EstimateNs mirrors Result.ElapsedNs: mean window ns/access × span
	// accesses (or the exact clock delta when the span was too short to
	// sample — see WindowsMeasured == 0).
	EstimateNs uint64
	// CIHalfNs is the Student-t half-width of the ElapsedNs estimate at
	// Confidence, and RelCIHalf the same relative to the estimate. Both
	// are 0 when fewer than two windows were measured — an interval needs
	// two samples; check WindowsMeasured before trusting them.
	CIHalfNs   float64
	RelCIHalf  float64
	Confidence float64
}

// sampleState is the per-Run scratch of the sampled scheduler.
type sampleState struct {
	// winNs accumulates one sample per full detailed window: the window's
	// mean *user-side* ns/access (clock delta minus kernel delta). Kernel
	// time needs no estimation — the functional loop tracks it exactly —
	// so it enters the span estimate as an exact additive term with zero
	// variance, and front-loaded transients like first-touch faults never
	// bias the extrapolation.
	winNs stats.Running
	// est is the current mean user-side ns/access estimate the functional
	// clock advances at: a cost-model prior before the first window, then
	// the running window mean.
	est float64
	// ciDone flips when the TargetCI budget is met; the rest of the span
	// runs purely functional.
	ciDone     bool
	detailed   uint64
	functional uint64
	skipped    uint64
	// owed counts thinned-away batches since the last full-fidelity
	// functional batch; that batch credits its traffic 1+owed times.
	owed int
}

// sampleOffset mixes the sampling seed with the stream position at span
// start (splitmix64 finalizer) to place the first window. Deterministic
// by construction: same seed and position, same placement.
func sampleOffset(seed int64, position uint64) uint64 {
	z := uint64(seed) ^ (position * 0x9e3779b97f4a7c15)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// samplePriorNs is the coarse per-access prior that paces the functional
// clock until the first window is measured: an L1 hit plus a small mixed
// DRAM share. Only tick/flush cadence depends on it, and only for the
// first fraction of a period.
func (r *Runner) samplePriorNs() float64 {
	read := (r.costs.DDRReadNs + r.costs.CXLReadNs) / 2
	return float64(r.costs.L1HitNs) + float64(read)/32
}

// runSampled is Run's sampled-mode body: functional warming between
// systematically-placed detailed windows, then an estimate with a
// Student-t interval from the measured windows.
func (r *Runner) runSampled(n int) Result {
	w := r.cfg.Sampling.DetailedWindow
	period := w + r.cfg.Sampling.FunctionalStride
	span := r.beginSpan()
	st := &r.smp
	*st = sampleState{est: r.samplePriorNs()}
	if r.estPrior > 0 {
		st.est = r.estPrior
	}

	if n < 2*period && r.estPrior > 0 {
		// Too short to schedule windows of its own, but an earlier span of
		// this runner (or of the checkpoint it was forked from) already
		// measured the mean user-side latency: run the whole span thinned
		// against that primed estimate. The functional clock advances at
		// est, so the span's ElapsedNs is the extrapolation — with no
		// fresh windows its interval stays 0 (WindowsMeasured reports 0;
		// the uncertainty lives with the spans that measured the prior).
		st.functional += uint64(r.runThinnedSpan(n))
	} else if n < 2*period {
		// Too short to form a schedule worth estimating from, and no prior
		// to extrapolate with: run it exactly. The "estimate" is then the
		// exact value with zero uncertainty (WindowsMeasured stays 0).
		st.detailed += uint64(r.runExactSpan(n))
	} else {
		pos := 0
		next := int(sampleOffset(r.cfg.Sampling.Seed, span.accesses) % uint64(period))
		// A warm prefix longer than the stretch itself just means the
		// whole stretch runs unthinned.
		warm := min(warmPrefix, r.cfg.Sampling.FunctionalStride)
		for pos < n {
			if st.ciDone || pos < next {
				target := n
				windowAhead := false
				if !st.ciDone && next < n {
					target = next
					windowAhead = true
				}
				// Thin the stretch at batch granularity, but close the
				// last warm accesses before a measured window at full
				// functional fidelity so the window opens on fresh
				// cache/TLB state.
				thinEnd := target
				if windowAhead && thinEnd-pos > warm {
					thinEnd -= warm
				} else if windowAhead {
					thinEnd = pos
				}
				ran := 0
				if thinEnd > pos {
					ran = r.runThinnedSpan(thinEnd - pos)
					pos += ran
				}
				if pos >= thinEnd && pos < target {
					fran := r.runFunctionalSpan(target - pos)
					pos += fran
					ran += fran
				}
				if ran == 0 {
					break
				}
				st.functional += uint64(ran)
				continue
			}
			want := w
			if n-pos < want {
				want = n - pos
			}
			clockBefore := r.clockNs
			kernelBefore := r.Sys.KernelNs()
			ran := r.runExactSpan(want)
			if ran == 0 {
				break
			}
			st.detailed += uint64(ran)
			pos += ran
			next += period
			if ran == w {
				// Only full windows become samples: a truncated tail
				// would inflate the variance for no coverage gain.
				user := (r.clockNs - clockBefore) - (r.Sys.KernelNs() - kernelBefore)
				st.winNs.Add(float64(user) / float64(ran))
				st.est = st.winNs.Mean()
				if tgt := r.cfg.Sampling.TargetCI; tgt > 0 && st.winNs.N() >= sampleMinWindows {
					if half := st.winNs.CIHalfWidth(sampleConfidence); half <= tgt*st.est {
						st.ciDone = true
					}
				}
			}
		}
	}

	spanAccesses := r.accesses - span.accesses
	windows := int(st.winNs.N())
	if windows >= 2 {
		// Prime later (possibly shorter) spans of this runner and of any
		// checkpoint forked from it with the measured mean.
		r.estPrior = st.winNs.Mean()
	}
	var estNs uint64
	var halfNs, rel float64
	if windows > 0 {
		// Total = exact span kernel time (tracked at full fidelity in
		// both tiers) + extrapolated user-side time. Only the user side
		// carries sampling uncertainty.
		spanKernel := r.Sys.KernelNs() - span.kernelNs
		estNs = spanKernel + uint64(math.Round(st.winNs.Mean()*float64(spanAccesses)))
		if windows >= 2 {
			halfNs = st.winNs.CIHalfWidth(sampleConfidence) * float64(spanAccesses)
			if estNs > 0 {
				rel = halfNs / float64(estNs)
			}
		}
	}
	// Span-delta counters plus the latest interval width, published
	// before the snapshot the Result carries. Registered only for sampled
	// runners, so exact-mode snapshots are unchanged byte for byte.
	r.obsSampleWindows.Add(uint64(windows))
	r.obsSampleDetailed.Add(st.detailed)
	r.obsSampleFunctional.Add(st.functional)
	r.obsSampleSkipped.Add(st.skipped)
	r.obsSampleCIHalf.Set(uint64(math.Round(rel * 1e6)))

	res := r.endSpan(span)
	if windows > 0 {
		res.ElapsedNs = estNs
		res.AccessesPerSec = 0
		if res.ElapsedNs > 0 {
			res.AccessesPerSec = float64(res.Accesses) * 1e9 / float64(res.ElapsedNs)
		}
	}
	res.Sampling = &SamplingInfo{
		Mode:               SampleModeSampled,
		WindowsMeasured:    windows,
		AccessesDetailed:   st.detailed,
		AccessesFunctional: st.functional,
		AccessesSkipped:    st.skipped,
		EstimateNs:         res.ElapsedNs,
		CIHalfNs:           halfNs,
		RelCIHalf:          rel,
		Confidence:         sampleConfidence,
	}
	return res
}

// runExactSpan drives the exact engine for up to k accesses and returns
// how many ran (short only when the stream ends).
func (r *Runner) runExactSpan(k int) int {
	ran := 0
	for ran < k {
		did := r.stepBatch(k - ran)
		if did == 0 {
			break
		}
		ran += did
	}
	return ran
}

// runFunctionalSpan drives the functional-warming loop for up to k
// accesses and returns how many ran. Every batch runs at full
// architectural fidelity (weight 1); thinned stretches go through
// runThinnedSpan instead.
func (r *Runner) runFunctionalSpan(k int) int {
	ran := 0
	for ran < k {
		did := r.stepFunctional(k-ran, 1)
		if did == 0 {
			break
		}
		ran += did
	}
	return ran
}

// runThinnedSpan drives a batch-thinned functional stretch: 1 in
// functionalThin batches runs the full functional kernel, with its DRAM
// and tracker traffic credited once per skipped neighbour
// (Horvitz-Thompson, so traffic counters stay unbiased in expectation);
// the others advance the stream and coarse clock only. The skip debt
// (smp.owed) persists across spans of one Run so boundary batches still
// get credited.
func (r *Runner) runThinnedSpan(k int) int {
	st := &r.smp
	ran := 0
	for ran < k {
		var did int
		if st.owed >= functionalThin-1 {
			did = r.stepFunctional(k-ran, 1+st.owed)
			if did > 0 {
				st.owed = 0
			}
		} else {
			did = r.stepSkip(k - ran)
			if did > 0 {
				st.owed++
				st.skipped += uint64(did)
			}
		}
		if did == 0 {
			break
		}
		ran += did
	}
	return ran
}

// stepSkip advances up to one batch of the workload stream without
// simulating it: the generator moves (tape cursors jump committed blocks
// without decoding, workload.Skipper), the coarse clock advances at the
// current mean-latency estimate, and daemon ticks / context-switch
// flushes still fire on their simulated-time cadence — but no
// translation, cache, or device state is touched. The skipped traffic is
// credited statistically by the next full-fidelity batch (runThinnedSpan).
//
//m5:hotpath
func (r *Runner) stepSkip(max int) int {
	n, ops := workload.Skip(r.gen, r.batch[:min(max, runnerBatch)])
	if n == 0 {
		return 0
	}
	r.advanceCoarse(n, r.Sys.KernelNs(), ops)
	return n
}

// stepFunctional executes up to one batch of accesses at functional
// fidelity: translation, the cache hierarchy, tier residency and
// bandwidth counters, device snoops and sink observes all run exactly as
// the detailed path would — but no per-access clock arithmetic. The clock
// advances once per batch at the current mean-latency estimate, keeping
// daemon ticks and context-switch flushes on their simulated-time
// cadence.
//
// weight > 1 means this batch also stands in for weight-1 thinned-away
// neighbour batches (runThinnedSpan): every DRAM read/write, device snoop,
// and sink observe is credited weight times, so traffic counters and
// tracker counts stay unbiased in expectation. State transitions (cache
// fills) happen once — repeating them would fake locality that the
// skipped batches may not have had.
//
//m5:hotpath
func (r *Runner) stepFunctional(max, weight int) int {
	accs := r.batch[:min(max, runnerBatch)]
	n := workload.NextBatch(r.gen, accs)
	if n == 0 {
		return 0
	}
	accs = accs[:n]
	// Kernel mm time (faults, scans, shootdowns, the daemon tick) is
	// tracked exactly even at functional fidelity: only user-side latency
	// is estimated.
	kernelBefore := r.Sys.KernelNs()
	// Translate the whole batch first, so a fault-hook promotion during
	// translation lands before the batch's cache accesses, snoops and sink
	// observes, never between them.
	base := r.base.Addr()
	phys := r.phys[:n]
	var tr tiermem.TranslateResult
	for i := range accs {
		r.Sys.TranslateInto(0, base+tiermem.VirtAddr(accs[i].Offset), accs[i].Write, &tr)
		phys[i] = tr.Phys
	}
	var (
		hasSinks = len(r.sinks) > 0
		remap    = r.remap
		scratch  trace.Access
		now      = r.clockNs
		uw       = uint64(weight)
		ops      = false
	)
	for i := range accs {
		a, pa := &accs[i], phys[i]
		ops = ops || a.OpEnd
		res := r.Cache.Access(pa, a.Write)
		if res.Level == cache.HitMemory {
			node := r.Sys.NodeOfAddr(pa)
			if remap != nil {
				node, _ = remap.Serve(pa.Word(), node)
			}
			r.Sys.Node(node).CountReads(uw)
			r.dramReads[node] += uw
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: now, Addr: pa, Write: a.Write}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.AccessN(scratch, uw)
				}
				if hasSinks {
					r.sinks.ObserveN(scratch, uw)
				}
			}
		}
		for _, wb := range res.Writeback {
			node := r.Sys.CountDRAMAccess(wb, true)
			r.Sys.Node(node).CountWrites(uw - 1)
			r.dramWrites[node] += uw
			if node == tiermem.NodeCXL || hasSinks {
				scratch = trace.Access{Time: now, Addr: wb, Write: true}
				if node == tiermem.NodeCXL {
					r.Ctrl.Device.AccessN(scratch, uw)
				}
				if hasSinks {
					r.sinks.ObserveN(scratch, uw)
				}
			}
		}
	}
	r.advanceCoarse(n, kernelBefore, ops)
	return n
}

// advanceCoarse closes a functional or skipped batch of n accesses: one
// clock advance at the estimated mean user-side rate (window means
// exclude kernel time), the context-switch flush and daemon tick on their
// simulated-time cadence, then every kernel nanosecond since kernelBefore
// (faults during translation, sink observes, the tick), which stalls the
// core exactly as in exact mode.
//
//m5:hotpath
func (r *Runner) advanceCoarse(n int, kernelBefore uint64, ops bool) {
	r.accesses += uint64(n)
	r.clockNs += uint64(float64(n) * r.smp.est)
	if r.ctxNs > 0 && r.clockNs >= r.nextCtx {
		r.Sys.TLB(0).Flush()
		r.nextCtx = r.clockNs + r.ctxNs
	}
	if r.daemon != nil && r.clockNs >= r.nextTick {
		tickKernelBefore := r.Sys.KernelNs()
		r.daemon.Tick(r.clockNs)
		r.nextTick = r.clockNs + r.daemon.PeriodNs()
		r.obsTickKernel.Observe(r.Sys.KernelNs() - tickKernelBefore)
	}
	r.clockNs += r.Sys.KernelNs() - kernelBefore
	if ops {
		// Op latencies are measured inside detailed windows only; resync
		// the op origin so a window's first completed op is not charged
		// for the functional stretch before it.
		r.opStart = r.clockNs
	}
}
