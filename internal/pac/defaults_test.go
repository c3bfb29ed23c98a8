package pac

import (
	"testing"

	"m5/internal/mem"
	"m5/internal/trace"
)

// TestZeroConfigDefaults pins the defaults a zero-value Config resolves
// to, a DefaultWACRegionBytes window from physical address 0, and the §3
// counter widths. Every constructor in this repo must accept its config's
// zero value.
func TestZeroConfigDefaults(t *testing.T) {
	pc := New(Config{})
	cfg := pc.Config()
	if got := cfg.Region.Size(); got != DefaultWACRegionBytes {
		t.Errorf("default region size = %d, want %d", got, uint64(DefaultWACRegionBytes))
	}
	if cfg.Region.Start != 0 {
		t.Errorf("default region start = %v, want 0", cfg.Region.Start)
	}
	if want := uint64(1)<<DefaultPACBits - 1; pc.max != want {
		t.Errorf("PAC saturates at %d, want %d", pc.max, want)
	}
	wc := New(Config{Granularity: WordCounter})
	if want := uint64(1)<<DefaultWACBits - 1; wc.max != want {
		t.Errorf("WAC saturates at %d, want %d", wc.max, want)
	}
}

// TestZeroConfigCounterCounts checks the zero-value counter actually
// counts in-region accesses.
func TestZeroConfigCounterCounts(t *testing.T) {
	pc := New(Config{})
	addr := mem.PhysAddr(3 * mem.PageSize)
	for i := 0; i < 4; i++ {
		pc.ObserveN(trace.Access{Addr: addr}, 1)
	}
	if got := pc.CountPage(addr.Page()); got != 4 {
		t.Errorf("CountPage = %d, want 4", got)
	}
	if pc.Dropped() != 0 {
		t.Errorf("Dropped = %d, want 0", pc.Dropped())
	}
}

// TestNamedConstructorsMatchNew pins NewPAC/NewWAC to New plus the
// granularity: the uniform-constructor contract of the policy API.
func TestNamedConstructorsMatchNew(t *testing.T) {
	region := mem.NewRange(0, 4*mem.PageSize)
	if got, want := NewPAC(region).Config(), New(Config{Granularity: PageCounter, Region: region}).Config(); got != want {
		t.Errorf("NewPAC config = %+v, want %+v", got, want)
	}
	if got, want := NewWAC(region).Config(), New(Config{Granularity: WordCounter, Region: region}).Config(); got != want {
		t.Errorf("NewWAC config = %+v, want %+v", got, want)
	}
}
