package main

import (
	"time"

	"m5/internal/cache"
	"m5/internal/experiments"
	"m5/internal/policy"
	"m5/internal/sim"
	"m5/internal/tiermem"
	"m5/internal/trace"
	"m5/internal/tracker"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// The layer replay times each layer's public functions directly on the
// workload's own recorded streams, so a per-call cost can be multiplied
// by the call counts the traced run observed (the ledger).

// replayAccesses bounds the accesses replayed per benchmark stream.
const replayAccesses = 200_000

// fig9Policies are the Figure 9 daemons whose ticks are timed, with the
// metric suffix each reports under.
var fig9Policies = []struct{ name, metric string }{
	{"anb", "anb"}, {"damon", "damon"}, {"m5-hpt", "m5-hpt"},
	{"m5-hwt", "m5-hwt"}, {"m5-hpt+hwt", "m5-both"},
}

// streamCosts are per-call host costs of the access path.
type streamCosts struct {
	decodeNs, translateNs, cacheNs, deviceNs float64
	// observeNs is ns per ObserveKeyN call by tracker algorithm, queryUs
	// the µs per Query.
	observeNs map[tracker.Algorithm]float64
	queryUs   float64
}

// replayStreams feeds each benchmark's recorded stream through a runner
// built with the HPT and HWT attached (so device accesses pay for both
// trackers), timing tape decode, translate, the cache hierarchy and the
// device separately, then the device stream through standalone trackers.
func replayStreams(tr *tracer, pool *tape.Pool, benches []string, scale workload.Scale, seed int64, n int) (streamCosts, error) {
	id := tr.begin("replay.stream", 0, 0)
	defer tr.end(id)
	var dec, xl, ca, dv time.Duration
	var accesses, devCalls int
	var devStream []trace.Access
	for _, bench := range benches {
		src, err := pool.Open(bench, scale, seed)
		if err != nil {
			return streamCosts{}, err
		}
		g, err := pool.Open(bench, scale, seed)
		if err != nil {
			src.Close()
			return streamCosts{}, err
		}
		r, err := sim.NewRunner(sim.Config{Workload: g, HPT: policy.DefaultHPT(), HWT: policy.DefaultHWT()})
		if err != nil {
			src.Close()
			g.Close()
			return streamCosts{}, err
		}
		base := r.Base().Addr()
		buf := make([]workload.Access, 1024)
		res := make([]tiermem.TranslateResult, len(buf))
		var dev []trace.Access
		var clock uint64
		for done := 0; done < n; {
			t0 := time.Now()
			k := workload.NextBatch(src, buf[:min(len(buf), n-done)])
			dec += time.Since(t0)
			if k == 0 {
				break
			}
			t0 = time.Now()
			for i := 0; i < k; i++ {
				r.Sys.TranslateInto(0, base+tiermem.VirtAddr(buf[i].Offset), buf[i].Write, &res[i])
			}
			xl += time.Since(t0)
			dev = dev[:0]
			t0 = time.Now()
			for i := 0; i < k; i++ {
				cr := r.Cache.Access(res[i].Phys, buf[i].Write)
				if cr.Level == cache.HitMemory && res[i].Node == tiermem.NodeCXL {
					dev = append(dev, trace.Access{Addr: res[i].Phys, Write: buf[i].Write})
				}
				for _, wb := range cr.Writeback {
					if r.Sys.NodeOfAddr(wb) == tiermem.NodeCXL {
						dev = append(dev, trace.Access{Addr: wb, Write: true})
					}
				}
			}
			ca += time.Since(t0)
			for i := range dev {
				clock += 100
				dev[i].Time = clock
			}
			t0 = time.Now()
			for _, a := range dev {
				r.Ctrl.Device.Access(a)
			}
			dv += time.Since(t0)
			devCalls += len(dev)
			devStream = append(devStream, dev...)
			done += k
			accesses += k
		}
		r.Close()
		src.Close()
	}
	c := streamCosts{
		decodeNs:    perCall(dec, accesses),
		translateNs: perCall(xl, accesses),
		cacheNs:     perCall(ca, accesses),
		deviceNs:    perCall(dv, devCalls),
		observeNs:   map[tracker.Algorithm]float64{},
	}
	var qd time.Duration
	var queries int
	for _, alg := range []tracker.Algorithm{tracker.SpaceSaving, tracker.CMSketch} {
		t := tracker.New(tracker.Config{Granularity: tracker.PageGranularity, Algorithm: alg, Entries: 2048, K: 5})
		gran := t.Config().Granularity
		var od time.Duration
		for lo := 0; lo < len(devStream); lo += 1024 {
			hi := min(lo+1024, len(devStream))
			t0 := time.Now()
			for _, a := range devStream[lo:hi] {
				t.ObserveKeyN(gran.Key(a.Addr), 1)
			}
			od += time.Since(t0)
			t0 = time.Now()
			t.Query()
			qd += time.Since(t0)
			queries++
		}
		c.observeNs[alg] = perCall(od, len(devStream))
	}
	c.queryUs = perCall(qd, queries) / 1e3
	return c, nil
}

func perCall(d time.Duration, calls int) float64 {
	if calls == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(calls)
}

// timedPolicy wraps the daemon policy.New returns and times its ticks.
// The engine reaches a daemon only through the tiermem.Policy methods,
// so forwarding those four keeps the cell on its normal path.
type timedPolicy struct {
	tiermem.Policy
	busy  time.Duration
	ticks int
}

func (p *timedPolicy) Tick(now uint64) {
	t0 := time.Now()
	p.Policy.Tick(now)
	p.busy += time.Since(t0)
	p.ticks++
}

// policyTicks runs one Figure 9 cell per daemon on bench's recorded
// stream, as the fig9 harness builds it, and returns µs per tick by
// metric suffix plus the ticks each made.
func policyTicks(tr *tracer, pool *tape.Pool, bench string, p experiments.Params) (map[string]float64, map[string]float64, error) {
	us, ticks := map[string]float64{}, map[string]float64{}
	for _, pol := range fig9Policies {
		id := tr.begin("replay.policy/"+pol.metric, 0, 0)
		g, err := pool.Open(bench, p.Scale, p.Seed)
		if err != nil {
			return nil, nil, err
		}
		cfg := sim.Config{Workload: g}
		if policy.NeedsHPT(pol.name) {
			cfg.HPT = policy.DefaultHPT()
		}
		if policy.NeedsHWT(pol.name) {
			cfg.HWT = policy.DefaultHWT()
		}
		r, err := sim.NewRunner(cfg)
		if err != nil {
			g.Close()
			return nil, nil, err
		}
		d, err := policy.New(pol.name, policy.Env{
			Sys: r.Sys, Ctrl: r.Ctrl, FootPages: int(g.Footprint() / 4096),
			Migrate: true, AttachMissSink: r.AttachMissSink,
		})
		if err != nil {
			r.Close()
			return nil, nil, err
		}
		tp := &timedPolicy{Policy: d}
		r.SetDaemon(tp)
		r.Run(p.Warmup + p.Accesses)
		r.Close()
		tr.end(id)
		us[pol.metric] = perCall(tp.busy, tp.ticks) / 1e3
		ticks[pol.metric] = float64(tp.ticks)
	}
	return us, ticks, nil
}

// checkpointFork warms bench's sec42-shaped machine and times
// Checkpoint and Fork (median of three of each, in ms).
func checkpointFork(tr *tracer, pool *tape.Pool, bench string, p experiments.Params) (cpMs, forkMs float64, err error) {
	id := tr.begin("replay.checkpoint", 0, 0)
	defer tr.end(id)
	g, err := pool.Open(bench, p.Scale, p.Seed)
	if err != nil {
		return 0, 0, err
	}
	r, err := sim.NewRunner(sim.Config{Workload: g, HPT: policy.DefaultHPT()})
	if err != nil {
		g.Close()
		return 0, 0, err
	}
	defer r.Close()
	r.Run(p.Warmup)
	var cps, forks []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		cp, err := r.Checkpoint()
		if err != nil {
			return 0, 0, err
		}
		cps = append(cps, time.Since(t0).Seconds()*1e3)
		t0 = time.Now()
		f, err := cp.Fork()
		if err != nil {
			return 0, 0, err
		}
		forks = append(forks, time.Since(t0).Seconds()*1e3)
		f.Close()
	}
	return median(cps), median(forks), nil
}

// scoreStats is what collectAndScore measured: seconds in each phase,
// the stream accesses simulated and trace entries collected, and the
// ObserveKeyN and Query calls the scoring trackers made.
type scoreStats struct {
	collectS, scoreS      float64
	streamAccs, traceAccs float64
	observeCalls, queries map[tracker.Algorithm]float64
}

// collectAndScore runs Figure 7's two phases through their public
// functions with a span around each call: one weighted trace collection
// per benchmark, then the tracker scorings (every algorithm and N when
// full, one page-keyed Space-Saving N=2048 scoring otherwise).
func collectAndScore(tr *tracer, p experiments.Params, benches []string, full bool) (scoreStats, error) {
	st := scoreStats{observeCalls: map[tracker.Algorithm]float64{}, queries: map[tracker.Algorithm]float64{}}
	for _, bench := range benches {
		id := tr.begin("sim.CollectWeightedCXLTrace", 0, 0)
		t0 := time.Now()
		wt, err := experiments.CollectWeightedCXLTrace(p, bench)
		st.collectS += time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return st, err
		}
		st.traceAccs += float64(len(wt.Accs))
		st.streamAccs += float64(p.Warmup + p.Accesses)
		type cell struct {
			alg tracker.Algorithm
			n   int
		}
		cells := []cell{{tracker.SpaceSaving, 2048}}
		if full {
			cells = nil
			for _, alg := range []tracker.Algorithm{tracker.SpaceSaving, tracker.CMSketch} {
				for _, n := range experiments.Fig7Entries {
					cells = append(cells, cell{alg, n})
				}
			}
		}
		for _, c := range cells {
			for _, g := range []struct {
				gran   tracker.Granularity
				period uint64
			}{{tracker.PageGranularity, 1_000_000}, {tracker.WordGranularity, 100_000}} {
				t := tracker.New(tracker.Config{Granularity: g.gran, Algorithm: c.alg, Entries: c.n, K: 5})
				id := tr.begin("experiments.ScoreTrackerOnWeightedTrace", 0, 0)
				t0 := time.Now()
				experiments.ScoreTrackerOnWeightedTrace(t, wt, experiments.EpochByTime(g.period))
				st.scoreS += time.Since(t0).Seconds()
				tr.end(id)
				st.observeCalls[c.alg] += float64(len(wt.Accs))
				st.queries[c.alg] += float64(t.Queries())
			}
		}
	}
	return st, nil
}

// layerParams is what the shared replay suite needs from a workload.
type layerParams struct {
	pool    *tape.Pool
	benches []string
	p       experiments.Params
	// fullScore replays every Figure 7 scoring cell (tracker-sweep).
	fullScore bool
}

// suite is the shared replay's output.
type suite struct {
	stream       streamCosts
	tickUs       map[string]float64
	ticks        map[string]float64
	cpMs, forkMs float64
	score        scoreStats
}

// meanTickUs is the tick-weighted mean daemon tick cost across the
// replayed policies; merged obs snapshots count ticks across all
// policies, so the ledger prices them at this mean.
func (s suite) meanTickUs() float64 {
	var busy, n float64
	for k, us := range s.tickUs {
		busy += us * s.ticks[k]
		n += s.ticks[k]
	}
	if n == 0 {
		return 0
	}
	return busy / n
}

// runSuite runs every replay and writes the timing metrics it yields.
func runSuite(tr *tracer, lp layerParams, m map[string]metric) (suite, error) {
	var s suite
	var err error
	n := min(replayAccesses, lp.p.Warmup+lp.p.Accesses)
	if s.stream, err = replayStreams(tr, lp.pool, lp.benches, lp.p.Scale, lp.p.Seed, n); err != nil {
		return s, err
	}
	if s.tickUs, s.ticks, err = policyTicks(tr, lp.pool, lp.benches[0], lp.p); err != nil {
		return s, err
	}
	if s.cpMs, s.forkMs, err = checkpointFork(tr, lp.pool, lp.benches[0], lp.p); err != nil {
		return s, err
	}
	scoreBenches := lp.benches[:1]
	if lp.fullScore {
		scoreBenches = lp.benches
	}
	sp := lp.p
	sp.Tapes = lp.pool
	if s.score, err = collectAndScore(tr, sp, scoreBenches, lp.fullScore); err != nil {
		return s, err
	}
	m["tape.decode_ns"] = metric{s.stream.decodeNs, "ns"}
	m["tiermem.translate_ns"] = metric{s.stream.translateNs, "ns"}
	m["cache.access_ns"] = metric{s.stream.cacheNs, "ns"}
	m["cxl.device_access_ns"] = metric{s.stream.deviceNs, "ns"}
	m["tracker.observe_ns.ss"] = metric{s.stream.observeNs[tracker.SpaceSaving], "ns"}
	m["tracker.observe_ns.cm"] = metric{s.stream.observeNs[tracker.CMSketch], "ns"}
	m["tracker.query_us"] = metric{s.stream.queryUs, "us"}
	for _, pol := range fig9Policies {
		m["policy.tick_us."+pol.metric] = metric{s.tickUs[pol.metric], "us"}
	}
	m["sim.checkpoint_ms"] = metric{s.cpMs, "ms"}
	m["sim.fork_ms"] = metric{s.forkMs, "ms"}
	m["sim.collect_s"] = metric{s.score.collectS, "s"}
	m["experiments.score_s"] = metric{s.score.scoreS, "s"}
	st := lp.pool.Stats()
	m["tape.bytes_mib"] = metric{float64(st.Bytes) / (1 << 20), "MiB"}
	m["tape.hit_ratio"] = metric{ratio(float64(st.Hits), float64(st.Hits+st.Misses)), "ratio"}
	m["tape.live_tails"] = metric{float64(st.LiveTails), "count"}
	return s, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// obsCounts reads the per-layer counters of a harness obs snapshot
// (only harnesses honouring CollectObs return one), keyed by the
// per-layer metric names, plus the access totals the ledger needs.
func obsCounts(r *experiments.Result) map[string]float64 {
	c := map[string]float64{}
	if r == nil || r.Obs == nil {
		return c
	}
	get := func(k string) float64 { return float64(r.Obs.Counters[k]) }
	cacheAcc := get("cache.l1_hits") + get("cache.l2_hits") + get("cache.llc_hits") + get("cache.dram_reads")
	c["cache_accesses"] = cacheAcc
	c["stream_accesses"] = cacheAcc
	if d := get("sample.accesses_detailed"); d > 0 {
		c["stream_accesses"] = d + get("sample.accesses_functional")
	}
	c["tiermem.walks"] = get("mem.walks")
	c["tiermem.faults"] = get("mem.faults")
	c["tiermem.promotions"] = get("mem.promotions")
	c["tiermem.shootdowns"] = get("mem.shootdowns")
	c["tiermem.tlb_hit_ratio"] = 1 - ratio(get("mem.walks"), cacheAcc)
	c["cache.l1_hits"] = get("cache.l1_hits")
	c["cache.llc_hits"] = get("cache.llc_hits")
	c["cache.dram_reads"] = get("cache.dram_reads")
	c["cache.writebacks"] = get("cache.writebacks")
	c["cache.hit_ratio"] = ratio(get("cache.l1_hits")+get("cache.l2_hits")+get("cache.llc_hits"), cacheAcc)
	c["cxl.snoop_reads"] = get("cxl.snoop_reads")
	c["cxl.snoop_writes"] = get("cxl.snoop_writes")
	c["cxl.mmio_queries"] = get("cxl.mmio_queries")
	c["policy.ticks"] = get("policy.ticks")
	c["policy.nominations"] = get("policy.nominations")
	c["policy.promoted"] = get("policy.promoted")
	c["policy.promote_yield"] = ratio(get("policy.promoted"), get("policy.nominations"))
	c["sim.sample_windows"] = get("sample.windows_measured")
	c["sim.detailed_frac"] = ratio(get("sample.accesses_detailed"), c["stream_accesses"])
	if get("sample.accesses_detailed") == 0 && cacheAcc > 0 {
		c["sim.detailed_frac"] = 1
	}
	return c
}

// countMetrics lists the obs-derived per-layer metrics and their units.
var countMetrics = []struct{ name, unit string }{
	{"tiermem.walks", "count"}, {"tiermem.faults", "count"}, {"tiermem.promotions", "count"},
	{"tiermem.shootdowns", "count"}, {"tiermem.tlb_hit_ratio", "ratio"},
	{"cache.l1_hits", "count"}, {"cache.llc_hits", "count"}, {"cache.dram_reads", "count"},
	{"cache.writebacks", "count"}, {"cache.hit_ratio", "ratio"},
	{"cxl.snoop_reads", "count"}, {"cxl.snoop_writes", "count"}, {"cxl.mmio_queries", "count"},
	{"policy.ticks", "count"}, {"policy.nominations", "count"}, {"policy.promoted", "count"},
	{"policy.promote_yield", "ratio"}, {"sim.sample_windows", "count"}, {"sim.detailed_frac", "ratio"},
}

// putCounts writes the obs-derived metrics (0 where the workload's
// harnesses collect no obs).
func putCounts(m map[string]metric, c map[string]float64) {
	for _, k := range countMetrics {
		m[k.name] = metric{c[k.name], k.unit}
	}
}
