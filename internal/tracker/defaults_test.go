package tracker

import "testing"

// TestZeroConfigDefaults pins the defaults a zero-value Config resolves
// to: every constructor in this repo must accept its config's zero value,
// and these numbers are part of the public contract (Table 4 / §5.1).
func TestZeroConfigDefaults(t *testing.T) {
	cfg := New(Config{}).Config()
	if cfg.K != 5 {
		t.Errorf("default K = %d, want 5", cfg.K)
	}
	if cfg.Entries != 32*1024 {
		t.Errorf("default Entries = %d, want 32768", cfg.Entries)
	}
	if cfg.Granularity != PageGranularity {
		t.Errorf("default Granularity = %v, want page", cfg.Granularity)
	}
	if cfg.Algorithm != CMSketch {
		t.Errorf("default Algorithm = %v, want cm-sketch", cfg.Algorithm)
	}
}

// TestNamedConstructorsMatchNew pins NewHPT/NewHWT to New plus the
// granularity: the uniform-constructor contract of the policy API.
func TestNamedConstructorsMatchNew(t *testing.T) {
	hpt := NewHPT(SpaceSaving, 64).Config()
	want := New(Config{Granularity: PageGranularity, Algorithm: SpaceSaving, Entries: 64}).Config()
	if hpt != want {
		t.Errorf("NewHPT config = %+v, want %+v", hpt, want)
	}
	hwt := NewHWT(CMSketch, 128).Config()
	if hwt.Granularity != WordGranularity {
		t.Errorf("NewHWT granularity = %v, want word", hwt.Granularity)
	}
	if hwt.K != 5 {
		t.Errorf("NewHWT default K=%d, want 5", hwt.K)
	}
}

// TestZeroConfigTrackerCounts checks the zero-value tracker actually
// works, not just constructs.
func TestZeroConfigTrackerCounts(t *testing.T) {
	tr := New(Config{})
	for i := 0; i < 10; i++ {
		tr.ObserveKeyN(42, 1)
	}
	tr.ObserveKeyN(7, 1)
	top := tr.Query()
	if len(top) == 0 || top[0].Addr != 42 {
		t.Fatalf("top-K after observing key 42 ten times = %v", top)
	}
}
