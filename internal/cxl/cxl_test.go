package cxl

import (
	"testing"

	"m5/internal/mem"
	"m5/internal/trace"
	"m5/internal/tracker"
)

func span() mem.Range { return mem.NewRange(0x4000_0000, 64*mem.PageSize) }

func TestDeviceCountsAndSnoops(t *testing.T) {
	d := NewDevice(span())
	var seen []trace.Access
	var weight uint64
	d.Attach(trace.SinkFunc(func(a trace.Access, n uint64) {
		seen = append(seen, a)
		weight += n
	}))
	d.Access(trace.Access{Addr: span().Start, Write: false}) // AccessN at weight 1
	d.AccessN(trace.Access{Addr: span().Start + 64, Write: true}, 3)
	if d.Reads() != 1 || d.Writes() != 3 {
		t.Errorf("reads=%d writes=%d, want 1 and 3", d.Reads(), d.Writes())
	}
	if len(seen) != 2 || weight != 4 {
		t.Errorf("snoop saw %d accesses of total weight %d, want 2 of weight 4", len(seen), weight)
	}
}

func TestDevicePanicsOutsideSpan(t *testing.T) {
	d := NewDevice(span())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d.AccessN(trace.Access{Addr: 0}, 1)
}

func TestDevicePanicsOnBadSpan(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewDevice(mem.NewRange(64, mem.PageSize)) // unaligned
}

func TestControllerFullStack(t *testing.T) {
	c := NewController(ControllerConfig{
		Span:      span(),
		EnablePAC: true,
		EnableWAC: true,
		HPT:       &tracker.Config{Algorithm: tracker.CMSketch, Entries: 1024},
		HWT:       &tracker.Config{Algorithm: tracker.CMSketch, Entries: 1024},
	})
	hot := span().Start.Page() + 3
	for i := 0; i < 100; i++ {
		c.Device.AccessN(trace.Access{Addr: hot.Word(uint(i % 4)).Addr()}, 1)
	}
	c.Device.AccessN(trace.Access{Addr: span().Start}, 1)

	if got := c.PAC.CountPage(hot); got != 100 {
		t.Errorf("PAC count = %d", got)
	}
	if got := c.WAC.CountWord(hot.Word(0)); got != 25 {
		t.Errorf("WAC count = %d", got)
	}
	top := c.QueryHPT()
	if len(top) == 0 || top[0].Addr != uint64(hot) {
		t.Errorf("HPT top = %+v", top)
	}
	wtop := c.QueryHWT()
	if len(wtop) == 0 || mem.WordNum(wtop[0].Addr).Page() != hot {
		t.Errorf("HWT top = %+v", wtop)
	}
	if c.MMIOQueries() != 2 {
		t.Errorf("MMIOQueries = %d", c.MMIOQueries())
	}
	// Queries reset the trackers.
	if len(c.HPT.Peek()) != 0 {
		t.Error("HPT should be reset after query")
	}
}

func TestControllerDisabledFunctions(t *testing.T) {
	c := NewController(ControllerConfig{Span: span()})
	c.Device.AccessN(trace.Access{Addr: span().Start}, 1)
	if c.QueryHPT() != nil || c.QueryHWT() != nil {
		t.Error("disabled trackers should return nil")
	}
	if c.MMIOQueries() != 0 {
		t.Error("nil queries must not count")
	}
	if c.PAC != nil || c.WAC != nil {
		t.Error("profilers should be disabled")
	}
}

func TestControllerGranularityOverride(t *testing.T) {
	// Even if the caller passes the wrong granularity, the controller
	// wires HPT to pages and HWT to words.
	c := NewController(ControllerConfig{
		Span: span(),
		HPT:  &tracker.Config{Granularity: tracker.WordGranularity},
		HWT:  &tracker.Config{Granularity: tracker.PageGranularity},
	})
	if c.HPT.Config().Granularity != tracker.PageGranularity {
		t.Error("HPT must track pages")
	}
	if c.HWT.Config().Granularity != tracker.WordGranularity {
		t.Error("HWT must track words")
	}
}

// ExternalSinks tells the controller's own functions from sinks attached
// to the device from outside, which a clone leaves behind.
func TestExternalSinks(t *testing.T) {
	c := NewController(ControllerConfig{Span: span(), EnablePAC: true, HPT: &tracker.Config{Entries: 64}})
	if c.ExternalSinks() {
		t.Error("a fresh controller reports external sinks")
	}
	c.Device.Attach(trace.SinkFunc(func(trace.Access, uint64) {}))
	if !c.ExternalSinks() {
		t.Error("a sink attached to the device goes unreported")
	}
	if c.Clone().ExternalSinks() {
		t.Error("a clone reports the external sink it does not carry")
	}
}
