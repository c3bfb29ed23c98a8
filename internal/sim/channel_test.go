package sim

import (
	"math"
	"testing"
)

// N back-to-back 64B accesses on a saturated channel must occupy it for
// exactly N × serviceNs (within 1ns): the channel clock is integer
// picoseconds, so the fractional-ns service times (64B at 150GB/s ≈
// 0.427ns) cannot drift the way the old float64+truncation clock did
// over millions of accesses.
func TestChannelSaturatedDelayIsNTimesService(t *testing.T) {
	cases := []struct {
		name         string
		bandwidthGBs float64
	}{
		{"exact-4ns", 16},      // 64/16 = 4ns per access
		{"ddr-default", 150},   // 0.42667ns: the drift-prone fraction
		{"cxl-default", 21},    // 3.0476ns
		{"slow-fraction", 0.5}, // 128ns
	}
	const n = 3_000_000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newChannel(tc.bandwidthGBs, nil)
			for i := 0; i < n; i++ {
				c.serve(0) // all issued at t=0: fully saturated
			}
			// Total busy time in ns, from the ps-precision clock.
			busyNs := float64(c.nextFree) / 1000
			wantNs := float64(n) * 64 / tc.bandwidthGBs
			if diff := math.Abs(busyNs - wantNs); diff > 1 {
				t.Fatalf("%d back-to-back serves occupy %.3fns, want %.3fns (drift %.3fns)",
					n, busyNs, wantNs, busyNs-wantNs)
			}
			// The next access's queueing delay equals the backlog within
			// the 1ns reporting granularity.
			d := c.serve(0)
			if diff := math.Abs(float64(d) - wantNs); diff > 1 {
				t.Fatalf("delay after %d serves is %dns, want %.3fns ±1ns", n, d, wantNs)
			}
		})
	}
}

// An idle channel adds zero delay: accesses spaced wider than the service
// time never queue.
func TestChannelIdleAddsZeroDelay(t *testing.T) {
	c := newChannel(21, nil) // ~3.05ns service
	for i := uint64(0); i < 1000; i++ {
		now := i * 10 // 10ns apart > 3.05ns service
		if d := c.serve(now); d != 0 {
			t.Fatalf("idle channel charged %dns delay at t=%dns", d, now)
		}
	}
}

// The reported whole-ns delay must never exceed the true ps-precision
// backlog (truncation may under-report by <1ns but never over-report).
func TestChannelDelayNeverExceedsBacklog(t *testing.T) {
	c := newChannel(150, nil)
	for i := uint64(0); i < 100_000; i++ {
		now := i / 10 // ten accesses per ns: heavy saturation
		backlogPs := uint64(0)
		if c.nextFree > now*1000 {
			backlogPs = c.nextFree - now*1000
		}
		if d := c.serve(now); d*1000 > backlogPs {
			t.Fatalf("access %d: delay %dns exceeds %dps backlog", i, d, backlogPs)
		}
	}
}

func TestChannelQueueing(t *testing.T) {
	c := channel{servicePs: 10_000} // 10ns service
	if d := c.serve(100); d != 0 {
		t.Errorf("idle channel delay = %d", d)
	}
	// Immediately following access at the same instant queues.
	if d := c.serve(100); d != 10 {
		t.Errorf("back-to-back delay = %d, want 10", d)
	}
	// An access after the channel drained sees no delay.
	if d := c.serve(1000); d != 0 {
		t.Errorf("late access delay = %d", d)
	}
}
