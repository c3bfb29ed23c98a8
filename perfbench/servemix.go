package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"m5/internal/experiments"
	"m5/internal/serve"
	"m5/internal/sim"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// Serve plan geometry: single-benchmark sec42 sweeps with long warmups
// and short measured spans. Cold builds and prefix extensions are
// dominated by the warmup simulation, warm hits by the four forked spans;
// the traced run prints the share of a warm hit that tree lookup, the
// forks and the HTTP round trip take. At 3k accesses per fork or fewer
// no daemon ticks, and every cell of the checked sec42 row reads 0.
//
// No record of real m5serve traffic exists to take the class mix from.
// The 8 warm hits per key (16:1:1 warm:extend:cold per client and round)
// make the warm hits and the two building classes each about half of the
// summed query latency, so a regression confined to either side moves
// cpu_s by about half its size.
const (
	serveWarm1   = 200_000 // warmup of a cold build
	serveWarm2   = 300_000 // warmup of the prefix extension of the same key
	serveSpan    = 5_000   // measured accesses per sec42 fork
	sec42Forks   = 4       // sec42 measures four solutions per warm machine
	serveClients = 2
	serveRounds  = 10 // rounds in the plan; the tree holds every key
	serveWarmHit = 8  // warm hits per key per round and client
)

// serveBenches are the clients' benchmarks, one each, so every round
// does the same work: redis (KVS, p99-scored) and mcf (SPEC, skewed).
var serveBenches = []string{"redis", "mcf"}

// query is one planned sweep. Its class is fixed by the plan: the first
// query of a fresh (bench, seed) builds cold, the longer warmup of the
// same stream extends that checkpoint, and every repeat hits the tree.
type query struct {
	class  string // cold | extend | warm
	bench  string
	seed   int64
	warmup int
}

func (q query) key() string {
	return fmt.Sprintf("sec42/%s/seed%d/warmup%d", q.bench, q.seed, q.warmup)
}

// simulated is the accesses the server simulates for a query of the
// class: the four forked spans, plus the whole warmup on a cold build or
// the warmup delta on a prefix extension (a warm hit reuses the tree's
// checkpoint).
func simulated(class string) int {
	n := sec42Forks * serveSpan
	switch class {
	case "cold":
		n += serveWarm1
	case "extend":
		n += serveWarm2 - serveWarm1
	}
	return n
}

// serveParams is the server's default Params; queries patch the
// benchmark, seed and warmup.
func serveParams(seed int64) experiments.Params {
	return experiments.Params{Scale: workload.ScaleTiny, Warmup: serveWarm1, Accesses: serveSpan,
		Points: 4, Seed: seed, Parallel: 1}
}

func (q query) params(base experiments.Params) experiments.Params {
	p := base
	p.Benchmarks, p.Seed, p.Warmup = []string{q.bench}, q.seed, q.warmup
	return p
}

// servePlan is the query plan of one run: per round, each client sends
// a cold build of its benchmark on a fresh seed, warm hits, a prefix
// extension of the same key and more hits.
type servePlan struct {
	seed       int64
	benches    []string
	clients    int
	rounds     int
	warmPerKey int
}

func (sp servePlan) round(r, c int) []query {
	i := r*sp.clients + c
	bench := sp.benches[c%len(sp.benches)]
	ks := sp.seed*1000 + int64(i) // a fresh stream per client and round
	qs := []query{{"cold", bench, ks, serveWarm1}}
	for j := 0; j < sp.warmPerKey; j++ {
		qs = append(qs, query{"warm", bench, ks, serveWarm1})
	}
	qs = append(qs, query{"extend", bench, ks, serveWarm2})
	for j := 0; j < sp.warmPerKey; j++ {
		qs = append(qs, query{"warm", bench, ks, serveWarm2})
	}
	return qs
}

// keys returns the distinct keys of rounds rs, in plan order.
func (sp servePlan) keys(rs ...int) []query {
	var out []query
	seen := map[string]bool{}
	for _, r := range rs {
		for c := 0; c < sp.clients; c++ {
			for _, q := range sp.round(r, c) {
				if !seen[q.key()] {
					seen[q.key()] = true
					out = append(out, q)
				}
			}
		}
	}
	return out
}

// server is m5serve's handler on a loopback listener.
type server struct {
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServer(base experiments.Params, pool *tape.Pool, treeNodes int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{served: make(chan error, 1), url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}}
	s.hs = &http.Server{Handler: serve.NewServer(serve.Config{Defaults: base, Tapes: pool, Tree: serve.NewTree(treeNodes)})}
	go func() { s.served <- s.hs.Serve(ln) }()
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// stop shuts the server down and waits for its Serve goroutine.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.served
	s.client.CloseIdleConnections()
}

// sweep sends q and returns the streamed row's Result bytes, the
// client-side latency (request sent to last byte read) and the server's
// own seconds for the row's harness call (the row's wall_seconds).
func (s *server) sweep(q query) (row []byte, lat, harness float64, err error) {
	body, err := json.Marshal(map[string]interface{}{
		"harness": "sec42",
		"params":  map[string]interface{}{"benchmarks": []string{q.bench}, "seed": q.seed, "warmup": q.warmup},
	})
	if err != nil {
		return nil, 0, 0, err
	}
	t0 := time.Now()
	resp, err := s.client.Post(s.url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat = time.Since(t0).Seconds()
	if err != nil {
		return nil, lat, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var ev struct {
			Type        string          `json:"type"`
			Result      json.RawMessage `json:"result"`
			Error       string          `json:"error"`
			WallSeconds float64         `json:"wall_seconds"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, lat, 0, err
		}
		switch ev.Type {
		case "row":
			row, harness = ev.Result, ev.WallSeconds
		case "error":
			return nil, lat, 0, errors.New(ev.Error)
		}
	}
	if row == nil {
		return nil, lat, 0, errors.New("no row streamed")
	}
	return row, lat, harness, nil
}

// obs reads the server's /obs counters.
func (s *server) obs() (map[string]uint64, error) {
	resp, err := s.client.Get(s.url + "/obs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var o struct {
		Serve struct {
			Counters map[string]uint64 `json:"counters"`
		} `json:"serve"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&o); err != nil {
		return nil, err
	}
	return o.Serve.Counters, nil
}

// serveWL is the serve-mix workload: two closed-loop clients, each
// sending its round of the plan and waiting for every reply before the
// next query. A pass is one round of both clients. When a run outlasts
// the plan, the plan starts over on a fresh server (an epoch), so every
// epoch builds the same keys cold again.
type serveWL struct {
	plan servePlan
	base experiments.Params
	pool *tape.Pool
	srv  *server

	next   int // next round of the epoch to send
	played int // rounds of the plan sent at least once
	// sent lists the queries sent in the epoch, and obs sums the /obs
	// counters of every epoch checked so far.
	sent []query
	obs  map[string]uint64
}

func newServeMix(seed int64, _ string) benchWorkload {
	return newServeWL(servePlan{seed: seed, benches: serveBenches, clients: serveClients,
		rounds: serveRounds, warmPerKey: serveWarmHit})
}

func newServeWL(plan servePlan) *serveWL {
	return &serveWL{plan: plan, base: serveParams(plan.seed), obs: map[string]uint64{}}
}

// setUp records every planned stream and starts the server.
func (w *serveWL) setUp() error {
	w.pool = tape.NewPool(tapeBudget, nil)
	for _, q := range w.plan.keys(seqInts(w.plan.rounds)...) {
		if q.class != "cold" {
			continue
		}
		if err := recordTapes(w.pool, []string{q.bench}, w.base.Scale, q.seed, serveWarm2+serveSpan); err != nil {
			return err
		}
	}
	return w.startEpoch()
}

// startEpoch starts a server on a fresh tree sized to hold every key of
// the plan, so no planned key is evicted.
func (w *serveWL) startEpoch() error {
	var err error
	w.srv, err = startServer(w.base, w.pool, w.plan.rounds*w.plan.clients*2)
	w.next, w.sent = 0, nil
	return err
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// minPasses runs the whole plan at least once, so every run holds the
// same keys and reaches the same tree size.
func (w *serveWL) minPasses(bool) int { return w.plan.rounds }

// prepare starts the next epoch once the plan's rounds are sent: it
// checks the finished epoch's /obs counters and replaces the server.
func (w *serveWL) prepare(chk *checker) error {
	if w.next < w.plan.rounds {
		return nil
	}
	if err := w.planCheck(chk); err != nil {
		return err
	}
	w.srv.stop()
	return w.startEpoch()
}

func (w *serveWL) pass(tr *tracer, op int, chk *checker) (passStats, error) {
	r := w.next
	w.next++
	ps := passStats{outputs: map[string][]byte{}, latencies: map[string][]float64{}}
	root := tr.begin("pass", 0, op)
	var mu sync.Mutex
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuSeconds()
	for c := 0; c < w.plan.clients; c++ {
		qs := w.plan.round(r, c)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, q := range qs {
				id := tr.begin("serve.query/"+q.class, root, op*10_000+c*1000+i)
				out, l, harness, err := w.srv.sweep(q)
				tr.end(id)
				chk.record(q.key(), out, err)
				mu.Lock()
				ps.latencies[q.class] = append(ps.latencies[q.class], l)
				if err == nil {
					ps.httpSeconds = append(ps.httpSeconds, l-harness)
				}
				if _, ok := ps.outputs[q.key()]; !ok && err == nil {
					ps.outputs[q.key()] = out
				}
				ps.accesses += float64(simulated(q.class))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	ps.seconds = time.Since(start).Seconds()
	ps.accSeconds = cpuSeconds() - cpu0
	tr.end(root)
	for c := 0; c < w.plan.clients; c++ {
		w.sent = append(w.sent, w.plan.round(r, c)...)
	}
	w.played = max(w.played, w.next)
	return ps, nil
}

// planCheck checks that the epoch's tree took exactly the planned path
// for every query sent to it, and adds its counters to w.obs.
func (w *serveWL) planCheck(chk *checker) error {
	got, err := w.srv.obs()
	if err != nil {
		return err
	}
	for k, v := range got {
		w.obs[k] += v
	}
	want := map[string]uint64{}
	for _, q := range w.sent {
		want[q.class]++
	}
	for _, c := range []struct {
		counter string
		want    uint64
	}{
		{"serve.checkpoint.hits", want["warm"]}, {"serve.checkpoint.extends", want["extend"]},
		{"serve.checkpoint.misses", want["cold"]}, {"serve.checkpoint.evictions", 0}, {"serve.rejected", 0},
	} {
		if got[c.counter] != c.want {
			chk.fail(fmt.Sprintf("plan check: /obs %s = %d, the plan has %d", c.counter, got[c.counter], c.want))
		}
	}
	return nil
}

// finish checks the last epoch's plan, and away from the default seed
// re-runs the keys of the first two and the last round cold, without the
// tree, against the served rows.
func (w *serveWL) finish(chk *checker) error {
	if err := w.planCheck(chk); err != nil {
		return err
	}
	if chk.ref != nil || w.played == 0 {
		return nil
	}
	rounds := []int{0}
	if w.played > 1 {
		rounds = append(rounds, 1)
	}
	if w.played > 2 {
		rounds = append(rounds, w.played-1)
	}
	for _, q := range w.plan.keys(rounds...) {
		p := q.params(w.base)
		p.Tapes = w.pool
		res, err := experiments.RunHarness("sec42", p)
		var out []byte
		if err == nil {
			out, err = json.Marshal(res)
		}
		chk.record(q.key(), out, err)
	}
	return nil
}

func (w *serveWL) close() {
	if w.srv != nil {
		w.srv.stop()
	}
	if w.pool != nil {
		w.pool.Close()
	}
}

// reference runs every planned key cold, without the tree: the rows a
// served query must reproduce.
func (w *serveWL) reference(chk *checker) (map[string][]byte, error) {
	for _, q := range w.plan.keys(seqInts(w.plan.rounds)...) {
		p := q.params(w.base)
		p.Tapes = w.pool
		res, err := experiments.RunHarness("sec42", p)
		if err != nil {
			return nil, err
		}
		out, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		chk.record(q.key(), out, nil)
	}
	return chk.outputs(), nil
}

// timedWarm times Tree.WarmCheckpoint and classifies each call by the
// tree counter it moved.
type timedWarm struct {
	tree *serve.Tree
	ms   map[string][]float64
}

func (t *timedWarm) WarmCheckpoint(p experiments.Params, key experiments.WarmKey, build func() (*sim.Runner, error)) (*sim.Checkpoint, error) {
	before := t.tree.Stats()
	t0 := time.Now()
	cp, err := t.tree.WarmCheckpoint(p, key, build)
	ms := time.Since(t0).Seconds() * 1e3
	after := t.tree.Stats()
	class := "miss"
	switch {
	case after.Hits > before.Hits:
		class = "hit"
	case after.Extends > before.Extends:
		class = "extend"
	}
	t.ms[class] = append(t.ms[class], ms)
	return cp, err
}

// serveLayerMetrics lists the serve layer's per-layer metrics.
var serveLayerMetrics = []struct{ name, unit string }{
	{"serve.warm_p50_ms", "ms"}, {"serve.warm_p90_ms", "ms"}, {"serve.extend_p50_ms", "ms"},
	{"serve.cold_p50_ms", "ms"}, {"serve.checkpoint_hits", "count"}, {"serve.checkpoint_extends", "count"},
	{"serve.checkpoint_misses", "count"}, {"serve.checkpoint_evictions", "count"}, {"serve.rejected", "count"},
	{"serve.resolve_ms.hit", "ms"}, {"serve.resolve_ms.extend", "ms"}, {"serve.resolve_ms.miss", "ms"},
	{"serve.http_ms", "ms"},
}

// serveMetrics writes the serve layer's metrics: client latencies by
// class and the HTTP remainder (latency minus the row's server-side
// harness seconds) from the traced passes, the summed /obs counters, and
// tree resolve times from an in-process replay of round 0 through a
// timed WarmSource over a fresh tree. It returns the replay's seconds.
func (w *serveWL) serveMetrics(tr *tracer, passes []passStats, chk *checker, m map[string]metric) (inproc float64) {
	lat := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p.latencies {
			lat[k] = append(lat[k], v...)
		}
	}
	ms := func(xs []float64, pct float64) float64 { return percentile(xs, pct) * 1e3 }
	m["serve.warm_p50_ms"] = metric{ms(lat["warm"], 50), "ms"}
	m["serve.warm_p90_ms"] = metric{ms(lat["warm"], 90), "ms"}
	m["serve.extend_p50_ms"] = metric{ms(lat["extend"], 50), "ms"}
	m["serve.cold_p50_ms"] = metric{ms(lat["cold"], 50), "ms"}
	if t := tailOf(lat["warm"]); t.OK {
		fmt.Printf("serve warm latency: p50=%.3fms p%v=%.3fms n=%d\n", ms(lat["warm"], 50), t.Pct, t.Value*1e3, t.N)
	}

	obs := w.obs
	m["serve.checkpoint_hits"] = metric{float64(obs["serve.checkpoint.hits"]), "count"}
	m["serve.checkpoint_extends"] = metric{float64(obs["serve.checkpoint.extends"]), "count"}
	m["serve.checkpoint_misses"] = metric{float64(obs["serve.checkpoint.misses"]), "count"}
	m["serve.checkpoint_evictions"] = metric{float64(obs["serve.checkpoint.evictions"]), "count"}
	m["serve.rejected"] = metric{float64(obs["serve.rejected"]), "count"}

	warm := &timedWarm{tree: serve.NewTree(w.plan.clients * 2), ms: map[string][]float64{}}
	for c := 0; c < w.plan.clients; c++ {
		for _, q := range w.plan.round(0, c) {
			p := q.params(w.base)
			p.Tapes, p.Warm = w.pool, warm
			id := tr.begin("experiments.RunHarness/sec42", 0, 0)
			t0 := time.Now()
			res, err := experiments.RunHarness("sec42", p)
			dt := time.Since(t0).Seconds()
			tr.end(id)
			inproc += dt
			var out []byte
			if err == nil {
				out, err = json.Marshal(res)
			}
			chk.record(q.key(), out, err)
		}
	}
	m["serve.resolve_ms.hit"] = metric{median(warm.ms["hit"]), "ms"}
	m["serve.resolve_ms.extend"] = metric{median(warm.ms["extend"]), "ms"}
	m["serve.resolve_ms.miss"] = metric{median(warm.ms["miss"]), "ms"}
	var http []float64
	for _, p := range passes {
		http = append(http, p.httpSeconds...)
	}
	m["serve.http_ms"] = metric{median(http) * 1e3, "ms"}
	return inproc
}

func (w *serveWL) layers(tr *tracer, passes []passStats, chk *checker, m map[string]metric) error {
	inproc := w.serveMetrics(tr, passes, chk, m)
	q0 := w.plan.round(0, 0)[0]
	p := q0.params(w.base)
	s, err := runSuite(tr, layerParams{pool: w.pool, benches: []string{q0.bench}, p: p}, m)
	if err != nil {
		return err
	}
	putCounts(m, nil)
	m["sim.sampled_err_pct"] = metric{0, "%"}
	m["experiments.harness_s"] = metric{inproc, "s"}

	// A warm hit is a tree lookup, four forks of the checkpoint, the four
	// forked spans' simulation and the HTTP round trip; print the share
	// the serving path (all but the simulation) takes of its latency.
	hit, http := m["serve.resolve_ms.hit"].Value, m["serve.http_ms"].Value
	warmP50 := m["serve.warm_p50_ms"].Value
	fmt.Printf("serve warm hit: resolve %.4f + %d forks x %.4f + http %.4f ms = %.0f%% of warm p50 %.4f ms\n",
		hit, sec42Forks, s.forkMs, http, 100*ratio(hit+sec42Forks*s.forkMs+http, warmP50), warmP50)

	// Ledger over the traced rounds' summed query latency: per query, the
	// accesses it simulated through decode, translate and cache, plus a
	// checkpoint per build, a fork per sec42 solution and per extension,
	// and the HTTP remainder.
	var busy, ns float64
	perAcc := s.stream.decodeNs + s.stream.translateNs + s.stream.cacheNs
	for _, p := range passes {
		for class, ls := range p.latencies {
			for _, l := range ls {
				busy += l
			}
			n := float64(len(ls))
			forks := float64(sec42Forks)
			if class != "warm" {
				ns += n * s.cpMs * 1e6
			}
			if class == "extend" {
				forks++
			}
			ns += n * (float64(simulated(class))*perAcc + forks*s.forkMs*1e6 + http*1e6)
		}
	}
	m["ledger.attributed_frac"] = metric{ratio(ns/1e9, busy), "ratio"}
	return nil
}
