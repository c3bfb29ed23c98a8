package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"m5/internal/mem"
)

func TestSliceSource(t *testing.T) {
	accs := []Access{
		{Time: 1, Addr: 0x1000},
		{Time: 2, Addr: 0x2000, Write: true},
	}
	src := NewSliceSource(accs)
	if src.Len() != 2 {
		t.Fatalf("Len = %d", src.Len())
	}
	got := Collect(src, 0)
	if len(got) != 2 || got[0] != accs[0] || got[1] != accs[1] {
		t.Fatalf("Collect = %+v", got)
	}
	if _, ok := src.Next(); ok {
		t.Error("exhausted source should return ok=false")
	}
	src.Rewind()
	if a, ok := src.Next(); !ok || a != accs[0] {
		t.Error("Rewind should restart the stream")
	}
}

func TestCollectMax(t *testing.T) {
	accs := make([]Access, 10)
	src := NewSliceSource(accs)
	if got := Collect(src, 3); len(got) != 3 {
		t.Errorf("Collect(max=3) returned %d", len(got))
	}
}

func TestDrainAndTee(t *testing.T) {
	accs := []Access{{Addr: 0x40}, {Addr: 0x80}, {Addr: 0xc0}}
	var a, b uint64
	tee := Tee{
		SinkFunc(func(_ Access, n uint64) { a += n }),
		SinkFunc(func(_ Access, n uint64) { b += n }),
	}
	n := Drain(NewSliceSource(accs), tee)
	if n != 3 || a != 3 || b != 3 {
		t.Errorf("Drain/Tee: n=%d a=%d b=%d", n, a, b)
	}
	tee.ObserveN(accs[0], 5)
	if a != 8 || b != 8 {
		t.Errorf("after Tee.ObserveN(a, 5): a=%d b=%d, want 8 each", a, b)
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := make([]Access, 1000)
	for i := range in {
		in[i] = Access{
			Time:  uint64(i) * 3,
			Addr:  mem.PhysAddr(rng.Uint64() % uint64(mem.MaxPhysAddr)),
			Write: rng.Intn(2) == 0,
		}
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range in {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != 1000 {
		t.Errorf("Count = %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := Collect(r, 0)
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestReaderRejectsBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Error("bad magic should be rejected")
	}
	if _, err := NewReader(bytes.NewReader([]byte("M5"))); err == nil {
		t.Error("short header should be rejected")
	}
	// Correct magic, wrong version.
	if _, err := NewReader(bytes.NewReader([]byte("M5TRACE\x7f"))); err == nil {
		t.Error("wrong version should be rejected")
	}
}

func TestReaderTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Access{Time: 1, Addr: 0x40})
	w.Close()
	raw := buf.Bytes()
	// Chop mid-record.
	r, err := NewReader(bytes.NewReader(raw[:len(raw)-5]))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); ok {
		t.Error("truncated record should not parse")
	}
	if r.Err() == nil {
		t.Error("truncation should surface as an error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(times []uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Access, len(times))
		for i, tm := range times {
			in[i] = Access{Time: tm, Addr: mem.PhysAddr(rng.Uint64()), Write: rng.Intn(2) == 0}
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, a := range in {
			if w.Write(a) != nil {
				return false
			}
		}
		if w.Close() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		out := Collect(r, 0)
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompressedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := make([]Access, 5000)
	for i := range in {
		in[i] = Access{Time: uint64(i), Addr: mem.PhysAddr(rng.Intn(1<<20) * 64), Write: i%3 == 0}
	}
	var buf bytes.Buffer
	w, err := NewCompressedWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range in {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= len(in)*17 {
		t.Errorf("compressed size %d not below raw %d", buf.Len(), len(in)*17)
	}
	r, err := NewCompressedReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := Collect(r, 0)
	if len(out) != len(in) {
		t.Fatalf("round trip length %d, want %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestCompressedReaderRejectsPlainTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Write(Access{Addr: 64})
	w.Close()
	if _, err := NewCompressedReader(&buf); err == nil {
		t.Error("plain trace should not open as gzip")
	}
}
