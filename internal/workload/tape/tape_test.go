package tape

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"m5/internal/obs"
	"m5/internal/workload"
)

// drain pulls n accesses from g in ragged batch sizes, exercising both
// block-interior and block-boundary decode paths.
func drain(t *testing.T, g workload.Generator, n int) []workload.Access {
	t.Helper()
	sizes := []int{1, 3, 17, 256, 1000, 4096, 5000}
	out := make([]workload.Access, 0, n)
	si := 0
	for len(out) < n {
		want := sizes[si%len(sizes)]
		si++
		if want > n-len(out) {
			want = n - len(out)
		}
		buf := make([]workload.Access, want)
		m := workload.NextBatch(g, buf)
		if m == 0 {
			t.Fatalf("stream ended after %d accesses, want %d", len(out), n)
		}
		out = append(out, buf[:m]...)
	}
	return out[:n]
}

// TestReplayMatchesLive pins the core tape contract: for every catalog
// benchmark, a replay cursor emits the byte-identical access sequence a
// fresh live generator emits, across ragged batch sizes and block
// boundaries.
func TestReplayMatchesLive(t *testing.T) {
	const n = 20000 // spans several blocks, ends mid-block
	for _, name := range workload.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			live, err := workload.New(name, workload.ScaleTiny, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			want := drain(t, live, n)

			pool := NewPool(0, nil)
			defer pool.Close()
			cur, err := pool.Open(name, workload.ScaleTiny, 3)
			if err != nil {
				t.Fatal(err)
			}
			defer cur.Close()
			got := drain(t, cur, n)

			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("access %d: tape %+v, live %+v", i, got[i], want[i])
				}
			}
			if cur.Name() != live.Name() {
				t.Fatalf("Name: tape %q, live %q", cur.Name(), live.Name())
			}
			if cur.Footprint() != live.Footprint() {
				t.Fatalf("Footprint: tape %d, live %d", cur.Footprint(), live.Footprint())
			}
		})
	}
}

// TestSecondCursorReplaysRecording verifies a second cursor replays the
// committed prefix without consulting the live source, and that the two
// cursors see the same stream even when interleaved.
func TestSecondCursorReplaysRecording(t *testing.T) {
	pool := NewPool(0, nil)
	defer pool.Close()
	a, err := pool.Open("pr", workload.ScaleTiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := pool.Open("pr", workload.ScaleTiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	bufA := make([]workload.Access, 700)
	bufB := make([]workload.Access, 700)
	for round := 0; round < 30; round++ {
		na := workload.NextBatch(a, bufA)
		nb := workload.NextBatch(b, bufB)
		if na != nb {
			t.Fatalf("round %d: cursor A got %d, B got %d", round, na, nb)
		}
		for i := 0; i < na; i++ {
			if bufA[i] != bufB[i] {
				t.Fatalf("round %d access %d: A %+v, B %+v", round, i, bufA[i], bufB[i])
			}
		}
	}
	st := pool.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: got hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	if st.Tapes != 1 {
		t.Fatalf("stats: got %d tapes, want 1", st.Tapes)
	}
}

// TestCheckpointAndReopen pins the O(1) checkpoint: ReopenAt resumes the
// stream exactly where Checkpoint captured it.
func TestCheckpointAndReopen(t *testing.T) {
	pool := NewPool(0, nil)
	defer pool.Close()
	cur, err := pool.Open("redis", workload.ScaleTiny, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()

	const skip = 9999
	prefix := drain(t, cur, skip)
	_ = prefix
	cp, ok := workload.CheckpointOf(cur)
	if !ok {
		t.Fatal("cursor does not support checkpoints")
	}
	if cp.Consumed != skip {
		t.Fatalf("checkpoint consumed = %d, want %d", cp.Consumed, skip)
	}
	want := drain(t, cur, 5000)

	ro, ok := cur.(workload.Reopener)
	if !ok {
		t.Fatal("cursor does not implement Reopener")
	}
	re, err := ro.ReopenAt(cp.Consumed)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := drain(t, re, 5000)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d after reopen: got %+v, want %+v", i, got[i], want[i])
		}
	}

	// NewAt on the checkpoint (the slow path) must agree too.
	slow, err := workload.NewAt(cp)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	got2 := drain(t, slow, 5000)
	for i := range want {
		if got2[i] != want[i] {
			t.Fatalf("access %d after NewAt: got %+v, want %+v", i, got2[i], want[i])
		}
	}
}

// TestBudgetBoundAndEviction verifies the pool never retains more than
// its byte budget, evicts the least-recently-opened tape, and that
// cursors on evicted or budget-refused tapes still produce the correct
// stream via live tails.
func TestBudgetBoundAndEviction(t *testing.T) {
	// Budget fits roughly one tape's worth of a few blocks but not two
	// growing tapes.
	const budget = 3 * maxBlockBytes
	pool := NewPool(budget, nil)
	defer pool.Close()

	a, err := pool.Open("mcf", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	const n = 40000
	gotA := drain(t, a, n)

	if st := pool.Stats(); st.Bytes > budget {
		t.Fatalf("pool bytes %d exceed budget %d", st.Bytes, budget)
	}

	b, err := pool.Open("roms", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	gotB := drain(t, b, n)
	if st := pool.Stats(); st.Bytes > budget {
		t.Fatalf("pool bytes %d exceed budget %d after second tape", st.Bytes, budget)
	}

	liveA, err := workload.New("mcf", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer liveA.Close()
	wantA := drain(t, liveA, n)
	liveB, err := workload.New("roms", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer liveB.Close()
	wantB := drain(t, liveB, n)
	for i := range wantA {
		if gotA[i] != wantA[i] {
			t.Fatalf("mcf access %d: got %+v, want %+v", i, gotA[i], wantA[i])
		}
	}
	for i := range wantB {
		if gotB[i] != wantB[i] {
			t.Fatalf("roms access %d: got %+v, want %+v", i, gotB[i], wantB[i])
		}
	}

	// A third stream under pressure: a freshly opened cursor on an
	// evicted tape must still replay from the start correctly.
	c, err := pool.Open("mcf", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	gotC := drain(t, c, 10000)
	for i := range gotC {
		if gotC[i] != wantA[i] {
			t.Fatalf("mcf (reopened) access %d: got %+v, want %+v", i, gotC[i], wantA[i])
		}
	}
}

// TestSkipMatchesFallback pins Cursor.Skip against workload.Skip's
// fallback (NextBatch plus an OpEnd scan) on a live generator. Ragged
// skips and reads of redis, whose operations end every few accesses, must
// report the same counts and op flags and leave both streams at the same
// position, also once the pool's budget has put the cursor on a live
// tail.
func TestSkipMatchesFallback(t *testing.T) {
	pool := NewPool(3*maxBlockBytes, nil)
	defer pool.Close()
	cur, err := pool.Open("redis", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if _, ok := cur.(workload.Skipper); !ok {
		t.Fatal("tape cursor has no skip path")
	}
	live, err := workload.New("redis", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	// Size 0 means "to the end of the current block", the cursor's O(1)
	// whole-remainder jump with nothing decoded after it.
	sizes := []int{1, 3, 17, 0, 256, 1000, 4096, 0, 5000, 4095}
	a, b := make([]workload.Access, 5000), make([]workload.Access, 5000)
	crossed, pos := 0, 0
	for i := 0; i < 60; i++ {
		size := sizes[i%len(sizes)]
		if size == 0 {
			size = blockLen - pos%blockLen
		}
		if i%3 == 2 {
			na, nb := workload.NextBatch(cur, a[:size]), workload.NextBatch(live, b[:size])
			if na != nb || !slices.Equal(a[:na], b[:nb]) {
				t.Fatalf("read %d (%d accesses) diverged after skipping", i, size)
			}
			pos += na
			continue
		}
		na, oa := workload.Skip(cur, a[:size])
		nb, ob := workload.Skip(live, b[:size])
		if na != nb || oa != ob {
			t.Fatalf("skip %d (%d accesses): cursor %d/%v, fallback %d/%v", i, size, na, oa, nb, ob)
		}
		if oa {
			crossed++
		}
		pos += na
	}
	if crossed == 0 {
		t.Error("no skip crossed an op boundary")
	}
	if pool.Stats().LiveTails == 0 {
		t.Error("the cursor never reached a live tail")
	}
}

// TestPoolObsMetrics verifies the workload-scope metrics move with pool
// traffic and stay within the budget bound.
func TestPoolObsMetrics(t *testing.T) {
	reg := obs.New()
	pool := NewPool(0, reg)
	defer pool.Close()
	g1, err := pool.Open("pr", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g1.Close()
	drain(t, g1, 10000)
	g2, err := pool.Open("pr", workload.ScaleTiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()

	w := reg.Scope("tape")
	if got := w.Counter("misses").Value(); got != 1 {
		t.Fatalf("tape.misses = %d, want 1", got)
	}
	if got := w.Counter("hits").Value(); got != 1 {
		t.Fatalf("tape.hits = %d, want 1", got)
	}
	bytes := w.Gauge("bytes").Value()
	if bytes == 0 {
		t.Fatal("tape.bytes gauge is zero after recording")
	}
	if st := pool.Stats(); st.Bytes != bytes {
		t.Fatalf("gauge %d disagrees with Stats().Bytes %d", bytes, st.Bytes)
	}
}

// TestPoolConcurrentOpen races many goroutines opening and draining the
// same key; the committed tape must serve all of them the same stream
// (run under -race in CI).
func TestPoolConcurrentOpen(t *testing.T) {
	pool := NewPool(0, nil)
	defer pool.Close()
	live, err := workload.New("bfs", workload.ScaleTiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	want := drain(t, live, 15000)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	bad := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			g, err := pool.Open("bfs", workload.ScaleTiny, 2)
			if err != nil {
				errs[w] = err
				return
			}
			defer g.Close()
			buf := make([]workload.Access, 777)
			i := 0
			for i < len(want) {
				n := workload.NextBatch(g, buf)
				if n == 0 {
					bad[w] = -1
					return
				}
				for j := 0; j < n && i < len(want); j, i = j+1, i+1 {
					if buf[j] != want[i] {
						bad[w] = i + 1
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if bad[w] != 0 {
			t.Fatalf("worker %d diverged at access %d", w, bad[w]-1)
		}
	}
}

// TestFileRoundTrip pins the on-disk format: export, import, replay
// identical; a cursor running past the recorded length continues on the
// rebuilt live stream.
func TestFileRoundTrip(t *testing.T) {
	const recorded = 10000
	tp, err := Record("roms", workload.ScaleTiny, 4, recorded)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if tp.Len() < recorded {
		t.Fatalf("recorded %d accesses, want >= %d", tp.Len(), recorded)
	}

	var buf bytes.Buffer
	if _, err := tp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTape(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != tp.Len() || back.Name() != tp.Name() || back.Footprint() != tp.Footprint() {
		t.Fatalf("imported tape header mismatch: %d/%q/%d vs %d/%q/%d",
			back.Len(), back.Name(), back.Footprint(), tp.Len(), tp.Name(), tp.Footprint())
	}

	live, err := workload.New("roms", workload.ScaleTiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	n := int(tp.Len()) + 5000 // run past the recording
	want := drain(t, live, n)
	got := drain(t, back.NewCursor(), n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("access %d: imported %+v, live %+v", i, got[i], want[i])
		}
	}
}

// TestFileCorruption verifies corrupt inputs are rejected, not replayed.
func TestFileCorruption(t *testing.T) {
	tp, err := Record("mcf", workload.ScaleTiny, 1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	var buf bytes.Buffer
	if _, err := tp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] = 'X'
	if _, err := ReadTape(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := ReadTape(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted body accepted")
	}

	if _, err := ReadTape(bytes.NewReader(buf.Bytes()[:len(buf.Bytes())-2])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestCursorNextBatchZeroAllocs pins the allocation-free replay
// contract on the fully-recorded decode path.
func TestCursorNextBatchZeroAllocs(t *testing.T) {
	tp, err := Record("pr", workload.ScaleTiny, 1, 200000)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	cur := tp.NewCursor()
	defer cur.Close()
	buf := make([]workload.Access, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		if workload.NextBatch(cur, buf) == 0 {
			t.Fatal("stream ended inside the recorded prefix")
		}
	})
	if allocs != 0 {
		t.Fatalf("replay NextBatch allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkCursorNextBatch measures replay decode throughput (and
// reports 0 allocs/op).
func BenchmarkCursorNextBatch(b *testing.B) {
	tp, err := Record("pr", workload.ScaleTiny, 1, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()
	cur := tp.NewCursor()
	defer cur.Close()
	buf := make([]workload.Access, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cur.pos+uint64(len(buf)) > tp.Len() {
			cur.seek(0)
			cur.pos = 0
		}
		if workload.NextBatch(cur, buf) == 0 {
			b.Fatal("stream ended")
		}
	}
}
