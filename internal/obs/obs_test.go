package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	// Every operation on the disabled plane must be a silent no-op.
	r.Scope("cache").Counter("hits").Inc()
	r.Counter("x").Add(7)
	r.Gauge("g").Set(3)
	r.Histogram("h", []uint64{1, 2}).Observe(1)
	r.Emit(0, "kind", 1, 2)
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot should be nil")
	}
	if r.Events() != nil {
		t.Fatal("nil registry events should be nil")
	}
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d, want 0", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 0 {
		t.Fatalf("nil histogram count = %d, want 0", got)
	}
}

// TestNilHandlesAreInert calls every exported method of every nil
// handle type with zero-value arguments: nil means the plane is
// disabled, so each call must return zero values without panicking.
// Reflection reaches methods added later without editing this test.
func TestNilHandlesAreInert(t *testing.T) {
	for _, h := range []any{(*Registry)(nil), (*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil), (*EventLog)(nil)} {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			name := "(" + v.Type().String() + ")." + v.Type().Method(i).Name
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s on a nil handle panicked: %v", name, r)
					}
				}()
				for _, out := range m.Call(args) {
					if !out.IsZero() {
						t.Errorf("%s on a nil handle returned %v, want the zero value", name, out)
					}
				}
			}()
		}
	}
}

func TestScopedNames(t *testing.T) {
	r := New()
	r.Scope("cache").Counter("hits").Add(3)
	r.Scope("dram").Scope("ddr").Counter("hits").Add(5)
	r.Counter("root").Inc()
	s := r.Snapshot()
	want := map[string]uint64{"cache.hits": 3, "dram.ddr.hits": 5, "root": 1}
	for name, v := range want {
		if s.Counters[name] != v {
			t.Errorf("counter %q = %d, want %d", name, s.Counters[name], v)
		}
	}
	if len(s.Counters) != len(want) {
		t.Errorf("got %d counters, want %d: %v", len(s.Counters), len(want), s.Counters)
	}
}

func TestCounterInterning(t *testing.T) {
	r := New()
	a := r.Scope("x").Counter("n")
	b := r.Scope("x").Counter("n")
	if a != b {
		t.Fatal("same scoped name must intern to the same counter")
	}
	a.Inc()
	b.Add(2)
	if got := r.Snapshot().Counters["x.n"]; got != 3 {
		t.Fatalf("x.n = %d, want 3", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []uint64{10, 100, 1000})
	for _, v := range []uint64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	hs := r.Snapshot().Histograms["lat"]
	wantCounts := []uint64{2, 2, 0, 1} // <=10: {5,10}; <=100: {11,100}; <=1000: none; +Inf: {5000}
	for i, w := range wantCounts {
		if hs.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (all: %v)", i, hs.Counts[i], w, hs.Counts)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
}

func TestEventLogRingBuffer(t *testing.T) {
	r := NewWithEvents(4)
	sc := r.Scope("policy")
	for i := uint64(0); i < 6; i++ {
		sc.Emit(i*10, "tick", i, i*2)
	}
	log := r.Events()
	events := log.Events()
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	// Oldest two (subjects 0, 1) were overwritten.
	for i, e := range events {
		wantSubj := uint64(i + 2)
		if e.Subject != wantSubj || e.Scope != "policy" || e.Kind != "tick" {
			t.Errorf("event %d = %+v, want subject %d scope=policy kind=tick", i, e, wantSubj)
		}
	}
	if log.Total() != 6 || log.Dropped() != 2 {
		t.Errorf("total=%d dropped=%d, want 6/2", log.Total(), log.Dropped())
	}
	// A registry built with New has no log; Emit must not panic.
	New().Emit(0, "x", 0, 0)
	if New().Events() != nil {
		t.Error("New() registry should have no event log")
	}
}

func TestMergeSemantics(t *testing.T) {
	mk := func(c uint64, g uint64, obsv []uint64) *Snapshot {
		r := New()
		r.Counter("n").Add(c)
		r.Gauge("level").Set(g)
		h := r.Histogram("h", []uint64{10, 100})
		for _, v := range obsv {
			h.Observe(v)
		}
		return r.Snapshot()
	}
	a := mk(3, 7, []uint64{5})
	b := mk(4, 2, []uint64{50, 500})

	ab := MergeAll([]*Snapshot{a, b})
	ba := MergeAll([]*Snapshot{b, a})

	if ab.Counters["n"] != 7 {
		t.Errorf("merged counter = %d, want 7", ab.Counters["n"])
	}
	if ab.Gauges["level"] != 7 {
		t.Errorf("merged gauge = %d, want max 7", ab.Gauges["level"])
	}
	wantH := []uint64{1, 1, 1}
	for i, w := range wantH {
		if ab.Histograms["h"].Counts[i] != w {
			t.Errorf("merged bucket %d = %d, want %d", i, ab.Histograms["h"].Counts[i], w)
		}
	}
	// Commutativity: the fold must not depend on merge order.
	j1, _ := json.Marshal(ab)
	j2, _ := json.Marshal(ba)
	if !bytes.Equal(j1, j2) {
		t.Errorf("merge is order-dependent:\n%s\n%s", j1, j2)
	}
	// Merging nil is a no-op.
	before, _ := json.Marshal(ab)
	ab.Merge(nil)
	after, _ := json.Marshal(ab)
	if !bytes.Equal(before, after) {
		t.Error("Merge(nil) changed the snapshot")
	}
}

func TestSnapshotJSONDeterministic(t *testing.T) {
	// encoding/json sorts map keys; two equal snapshots must render to
	// identical bytes regardless of map iteration order.
	build := func() []byte {
		r := New()
		for _, name := range []string{"z", "a", "m", "k"} {
			r.Scope(name).Counter("v").Add(uint64(len(name)))
		}
		j, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	first := build()
	for i := 0; i < 8; i++ {
		if got := build(); !bytes.Equal(first, got) {
			t.Fatalf("snapshot JSON unstable:\n%s\n%s", first, got)
		}
	}
}

func TestWriteTable(t *testing.T) {
	r := New()
	r.Scope("cache").Counter("hits").Add(12)
	r.Gauge("pages").Set(4)
	r.Histogram("lat", []uint64{100}).Observe(50)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"cache.hits", "12", "pages", `lat{le="100"}`, `lat{le="+Inf"}`} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	// Nil snapshot renders nothing and does not panic.
	var nilSnap *Snapshot
	if err := nilSnap.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
}
