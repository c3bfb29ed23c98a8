package sim

import "m5/internal/obs"

// Per-tier data-transfer bandwidth of the queued model (Config.Bandwidth):
// DDR is 4×DDR5-4800 ≈ 150GB/s; the CXL device has a single DDR4-2666
// channel ≈ 21GB/s (Table 2 / §6).
const (
	ddrBandwidthGBs = 150
	cxlBandwidthGBs = 21
)

// channel is a single-server queue modelling one tier's data-transfer
// bandwidth: each 64B access occupies the channel for servicePs
// picoseconds. The clock is integer picoseconds, and within one busy
// period the k-th departure is computed as base + round(k×servicePs) —
// one rounding per busy period, so fractional service times (64B at
// 150GB/s ≈ 0.427ns) never accumulate drift over millions of accesses.
type channel struct {
	servicePs float64 // exact service time in ps
	base      uint64  // ps: start of the current busy period
	served    uint64  // serves in the current busy period
	nextFree  uint64  // ps: when the channel next idles

	obsServes  *obs.Counter // chan.*.serves
	obsQueued  *obs.Counter // chan.*.queued (serves that waited)
	obsDelayNs *obs.Counter // chan.*.queue_delay_ns (total wait)
}

// newChannel builds a channel serving 64B transfers at the given
// bandwidth. metrics may be nil.
func newChannel(bandwidthGBs float64, metrics *obs.Registry) channel {
	return channel{
		servicePs:  64 * 1000 / bandwidthGBs,
		obsServes:  metrics.Counter("serves"),
		obsQueued:  metrics.Counter("queued"),
		obsDelayNs: metrics.Counter("queue_delay_ns"),
	}
}

// serve returns the extra queueing delay in whole ns for an access issued
// at now (ns) and advances the channel clock, retaining picosecond
// precision internally.
//
//m5:hotpath
func (c *channel) serve(now uint64) uint64 {
	nowPs := now * 1000
	var delayPs uint64
	if c.nextFree > nowPs {
		delayPs = c.nextFree - nowPs
	} else {
		// Idle: a new busy period begins at now.
		c.base = nowPs
		c.served = 0
	}
	c.served++
	c.nextFree = c.base + uint64(float64(c.served)*c.servicePs+0.5)
	c.obsServes.Inc()
	if delayPs > 0 {
		c.obsQueued.Inc()
		c.obsDelayNs.Add(delayPs / 1000)
	}
	return delayPs / 1000
}
