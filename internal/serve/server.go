package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"m5/internal/experiments"
	"m5/internal/obs"
	"m5/internal/workload"
	"m5/internal/workload/tape"
)

// Config wires a Server: the base Params every query starts from, the
// shared tape pool and checkpoint tree (either may be nil), and the
// request-admission limits.
type Config struct {
	// Defaults is the base parameter set; sweep queries patch it.
	Defaults experiments.Params
	// Tapes, when set, serves every cell's access stream from the shared
	// record-once/replay-many pool.
	Tapes *tape.Pool
	// Tree, when set, serves warm checkpoints from the shared
	// copy-on-write tree.
	Tree *Tree
	// MaxConcurrent bounds simultaneously running sweep queries
	// (<=0 means 4); excess requests get 429 instead of queueing.
	MaxConcurrent int
	// DefaultDeadline bounds a query that names no deadline (<=0 means
	// 60s); MaxDeadline caps client-requested deadlines (<=0 means 10m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
}

// Server is the sweep frontend. Handlers are safe for concurrent use:
// each query runs on its own request goroutine, shares only the
// concurrency-safe tape pool and checkpoint tree, and all serve.*
// counters are plain atomics — the obs.Registry plane is single-
// goroutine by design, so the server keeps its own counters and renders
// them in snapshot shape for /obs.
type Server struct {
	cfg Config
	mux *http.ServeMux
	sem chan struct{}

	draining atomic.Bool
	wg       sync.WaitGroup

	queries  atomic.Uint64 // sweep queries admitted
	cells    atomic.Uint64 // sweep cells completed
	errors   atomic.Uint64 // cells or requests that errored
	rejected atomic.Uint64 // 429/503 admissions
	inflight atomic.Int64

	// Aggregated sample.* counters from completed sampled cells (only
	// cells run with collect_obs carry the per-cell snapshot these are
	// summed from).
	sampleWindows    atomic.Uint64
	sampleDetailed   atomic.Uint64
	sampleFunctional atomic.Uint64
}

// NewServer builds the sweep server and its routes.
func NewServer(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 60 * time.Second
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 10 * time.Minute
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.MaxConcurrent),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /harnesses", s.handleHarnesses)
	s.mux.HandleFunc("GET /obs", s.handleObs)
	s.mux.HandleFunc("POST /sweep", s.handleSweep)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// BeginDrain stops admitting sweep queries (503) while in-flight ones
// run to completion.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain blocks until every in-flight sweep query finishes or ctx
// expires.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// harnessInfo is one /harnesses row: the registry descriptor a client
// needs to compose sweep queries.
type harnessInfo struct {
	Name              string   `json:"name"`
	Title             string   `json:"title"`
	DefaultBenchmarks []string `json:"default_benchmarks,omitempty"`
}

func (s *Server) handleHarnesses(w http.ResponseWriter, _ *http.Request) {
	var hs []harnessInfo
	for _, h := range experiments.Harnesses() {
		hs = append(hs, harnessInfo{Name: h.Name, Title: h.Title, DefaultBenchmarks: h.DefaultBenchmarks})
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"harnesses":  hs,
		"benchmarks": workload.Registered(),
		"scales":     []string{"tiny", "small", "medium", "large"},
		"defaults":   paramsView(s.cfg.Defaults),
	})
}

// obsResponse is the /obs payload: the server's own counters in
// obs.Snapshot shape, the checkpoint tree and tape pool stats, and the
// live admission state.
type obsResponse struct {
	Serve      *obs.Snapshot `json:"serve"`
	Checkpoint *TreeStats    `json:"checkpoint,omitempty"`
	Tape       *tape.Stats   `json:"tape,omitempty"`
	Inflight   int64         `json:"inflight"`
	Draining   bool          `json:"draining"`
}

func (s *Server) handleObs(w http.ResponseWriter, _ *http.Request) {
	resp := obsResponse{
		Serve: &obs.Snapshot{Counters: map[string]uint64{
			"serve.queries":  s.queries.Load(),
			"serve.cells":    s.cells.Load(),
			"serve.errors":   s.errors.Load(),
			"serve.rejected": s.rejected.Load(),
		}},
		Inflight: s.inflight.Load(),
		Draining: s.draining.Load(),
	}
	if s.cfg.Tree != nil {
		st := s.cfg.Tree.Stats()
		resp.Checkpoint = &st
		resp.Serve.Counters["serve.checkpoint.hits"] = st.Hits
		resp.Serve.Counters["serve.checkpoint.misses"] = st.Misses
		resp.Serve.Counters["serve.checkpoint.extends"] = st.Extends
		resp.Serve.Counters["serve.checkpoint.evictions"] = st.Evictions
		resp.Serve.Counters["serve.checkpoint.forks"] = st.Hits + st.Misses + st.Extends
	}
	if s.cfg.Tapes != nil {
		st := s.cfg.Tapes.Stats()
		resp.Tape = &st
	}
	if w := s.sampleWindows.Load(); w > 0 || s.sampleDetailed.Load() > 0 {
		resp.Serve.Counters["serve.sample.windows_measured"] = w
		resp.Serve.Counters["serve.sample.accesses_detailed"] = s.sampleDetailed.Load()
		resp.Serve.Counters["serve.sample.accesses_functional"] = s.sampleFunctional.Load()
	}
	writeJSON(w, http.StatusOK, resp)
}

// accumulateSamples folds a completed cell's sample.* counters (present
// only when the cell ran sampled with collect_obs) into the server-wide
// aggregates /obs reports.
func (s *Server) accumulateSamples(res *experiments.Result) {
	if res == nil || res.Obs == nil {
		return
	}
	for _, t := range []struct {
		key string
		agg *atomic.Uint64
	}{
		{"sample.windows_measured", &s.sampleWindows},
		{"sample.accesses_detailed", &s.sampleDetailed},
		{"sample.accesses_functional", &s.sampleFunctional},
	} {
		if v, ok := res.Obs.Counters[t.key]; ok {
			t.agg.Add(v)
		}
	}
}

// ParamsPatch is a partial Params override: nil fields keep the base
// value. It is both the query-wide override and the per-cell grid entry.
type ParamsPatch struct {
	Scale      *string  `json:"scale,omitempty"`
	Warmup     *int     `json:"warmup,omitempty"`
	Accesses   *int     `json:"accesses,omitempty"`
	Points     *int     `json:"points,omitempty"`
	Seed       *int64   `json:"seed,omitempty"`
	Benchmarks []string `json:"benchmarks,omitempty"`
	Parallel   *int     `json:"parallel,omitempty"`
	CollectObs *bool    `json:"collect_obs,omitempty"`
	// Sampling tier (statistical, NOT byte-identical — see
	// experiments.Params.Sample). Per-query opt-in: server defaults keep
	// it off so served results stay byte-identical to batch runs.
	Sample       *bool    `json:"sample,omitempty"`
	SampleWindow *int     `json:"sample_window,omitempty"`
	SampleStride *int     `json:"sample_stride,omitempty"`
	TargetCI     *float64 `json:"target_ci,omitempty"`
}

// apply patches p with the non-nil fields.
//
//m5:plumb experiments.Params ignore=Tapes,Warm
func (pp *ParamsPatch) apply(p experiments.Params) (experiments.Params, error) {
	if pp == nil {
		return p, nil
	}
	if pp.Scale != nil {
		sc, err := workload.ParseScale(*pp.Scale)
		if err != nil {
			return p, err
		}
		p.Scale = sc
	}
	if pp.Warmup != nil {
		p.Warmup = *pp.Warmup
	}
	if pp.Accesses != nil {
		p.Accesses = *pp.Accesses
	}
	if pp.Points != nil {
		p.Points = *pp.Points
	}
	if pp.Seed != nil {
		p.Seed = *pp.Seed
	}
	if len(pp.Benchmarks) > 0 {
		p.Benchmarks = pp.Benchmarks
	}
	if pp.Parallel != nil {
		p.Parallel = *pp.Parallel
	}
	if pp.CollectObs != nil {
		p.CollectObs = *pp.CollectObs
	}
	if pp.Sample != nil {
		p.Sample = *pp.Sample
	}
	if pp.SampleWindow != nil {
		p.SampleWindow = *pp.SampleWindow
	}
	if pp.SampleStride != nil {
		p.SampleStride = *pp.SampleStride
	}
	if pp.TargetCI != nil {
		p.TargetCI = *pp.TargetCI
	}
	return p, nil
}

// paramsView is the JSON echo of one cell's resolved parameters.
type paramsView_ struct {
	Scale        string   `json:"scale"`
	Warmup       int      `json:"warmup"`
	Accesses     int      `json:"accesses"`
	Points       int      `json:"points"`
	Seed         int64    `json:"seed"`
	Benchmarks   []string `json:"benchmarks,omitempty"`
	Parallel     int      `json:"parallel,omitempty"`
	CollectObs   bool     `json:"collect_obs,omitempty"`
	Sample       bool     `json:"sample,omitempty"`
	SampleWindow int      `json:"sample_window,omitempty"`
	SampleStride int      `json:"sample_stride,omitempty"`
	TargetCI     float64  `json:"target_ci,omitempty"`
}

//m5:plumb experiments.Params ignore=Tapes,Warm
func paramsView(p experiments.Params) paramsView_ {
	return paramsView_{
		Scale:        p.Scale.String(),
		Warmup:       p.Warmup,
		Accesses:     p.Accesses,
		Points:       p.Points,
		Seed:         p.Seed,
		Benchmarks:   p.Benchmarks,
		Parallel:     p.Parallel,
		CollectObs:   p.CollectObs,
		Sample:       p.Sample,
		SampleWindow: p.SampleWindow,
		SampleStride: p.SampleStride,
		TargetCI:     p.TargetCI,
	}
}

// SweepRequest is the /sweep body: a harness name, an optional
// query-wide Params patch, and an optional grid of per-cell patches
// (empty grid = one cell). DeadlineMS bounds the whole query.
type SweepRequest struct {
	Harness    string        `json:"harness"`
	Params     *ParamsPatch  `json:"params,omitempty"`
	Grid       []ParamsPatch `json:"grid,omitempty"`
	DeadlineMS int           `json:"deadline_ms,omitempty"`
}

// sweepEvent is one NDJSON line of a /sweep response.
type sweepEvent struct {
	Type        string              `json:"type"` // start | row | error | done
	Harness     string              `json:"harness,omitempty"`
	Cells       int                 `json:"cells,omitempty"`
	Cell        int                 `json:"cell,omitempty"`
	Params      *paramsView_        `json:"params,omitempty"`
	Result      *experiments.Result `json:"result,omitempty"`
	Error       string              `json:"error,omitempty"`
	WallSeconds float64             `json:"wall_seconds,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejected.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "server is draining"})
		return
	}
	select {
	case s.sem <- struct{}{}:
	default:
		s.rejected.Add(1)
		writeJSON(w, http.StatusTooManyRequests,
			map[string]string{"error": fmt.Sprintf("at capacity (%d concurrent queries)", s.cfg.MaxConcurrent)})
		return
	}
	defer func() { <-s.sem }()
	s.wg.Add(1)
	defer s.wg.Done()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req SweepRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decoding request: " + err.Error()})
		return
	}
	if _, ok := experiments.LookupHarness(req.Harness); !ok {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": fmt.Sprintf("unknown harness %q (one of %v)", req.Harness, experiments.HarnessNames()),
		})
		return
	}
	// Resolve and validate every cell before running any: bad input is a
	// 400 up front, never a half-streamed failure.
	base, err := req.Params.apply(s.cfg.Defaults)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	grid := req.Grid
	if len(grid) == 0 {
		grid = []ParamsPatch{{}}
	}
	cells := make([]experiments.Params, len(grid))
	for i := range grid {
		p, err := grid[i].apply(base)
		if err == nil {
			err = p.Validate()
		}
		if err != nil {
			writeJSON(w, http.StatusBadRequest,
				map[string]string{"error": fmt.Sprintf("cell %d: %v", i, err)})
			return
		}
		p.Tapes = s.cfg.Tapes
		if s.cfg.Tree != nil {
			p.Warm = s.cfg.Tree
		}
		cells[i] = p
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	s.queries.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	emit := func(ev sweepEvent) {
		enc.Encode(ev)
		rc.Flush()
	}

	start := time.Now()
	emit(sweepEvent{Type: "start", Harness: req.Harness, Cells: len(cells)})
	completed := 0
	for i, p := range cells {
		// The deadline gates between cells: a cell in flight runs to
		// completion (its checkpoint-tree builds finish and stay
		// consistent), so cancellation never tears shared state.
		if err := ctx.Err(); err != nil {
			s.errors.Add(1)
			emit(sweepEvent{Type: "error", Cell: i, Error: "query deadline exceeded: " + err.Error()})
			break
		}
		cellStart := time.Now()
		res, err := experiments.RunHarness(req.Harness, p)
		if err != nil {
			s.errors.Add(1)
			emit(sweepEvent{Type: "error", Cell: i, Error: err.Error()})
			break
		}
		s.cells.Add(1)
		completed++
		s.accumulateSamples(res)
		pv := paramsView(p)
		emit(sweepEvent{
			Type:        "row",
			Cell:        i,
			Params:      &pv,
			Result:      res,
			WallSeconds: time.Since(cellStart).Seconds(),
		})
	}
	emit(sweepEvent{Type: "done", Cells: completed, WallSeconds: time.Since(start).Seconds()})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
