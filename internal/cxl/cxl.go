// Package cxl models the FPGA-based CXL Type-2/3 device of Figures 1-2:
// device memory behind a memory controller, with an AFU snoop path between
// the CXL IP and the MCs where near-memory functions observe every
// host-to-device memory access. PAC/WAC (package pac) and HPT/HWT (package
// tracker) attach to that snoop path; the host reaches their state through
// MMIO over CXL.io.
package cxl

import (
	"fmt"

	"m5/internal/cam"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/pac"
	"m5/internal/trace"
	"m5/internal/tracker"
)

// Device is the CXL memory expander: a physical span served by the
// device-side memory controller, with an AFU snoop fan-out.
type Device struct {
	span   mem.Range
	snoop  trace.Tee
	reads  uint64
	writes uint64

	obsReads  *obs.Counter
	obsWrites *obs.Counter
}

// NewDevice builds a device over a page-aligned physical span (the paper's
// board carries 8GB of DDR4-2666).
func NewDevice(span mem.Range) *Device {
	if span.Pages() == 0 || span.Start.PageOffset() != 0 {
		panic(fmt.Sprintf("cxl: device span %v must be page-aligned and non-empty", span))
	}
	return &Device{span: span}
}

// Span returns the device memory range as seen in host physical space.
func (d *Device) Span() mem.Range { return d.span }

// Attach adds a near-memory function to the AFU snoop path. Every access
// the MC serves is observed by all attached sinks, in attach order.
func (d *Device) Attach(s trace.Sink) { d.snoop = append(d.snoop, s) }

// AccessN serves the host memory access n times with one snoop fan-out:
// the exact engine passes 1, and the sampled simulator tier passes the
// weight of a batch that stands in for thinned-away neighbours. Accesses
// outside the device span are a host bug and panic. The AFU observes the
// access before the MC completes it (address snooping, Figure 2).
//
//m5:hotpath
func (d *Device) AccessN(a trace.Access, n uint64) {
	if !d.span.Contains(a.Addr) {
		//m5:coldpath host-bug guard; formatting happens only while dying.
		panic(fmt.Sprintf("cxl: access %v outside device span %v", a.Addr, d.span))
	}
	d.snoop.ObserveN(a, n)
	if a.Write {
		d.writes += n
		d.obsWrites.Add(n)
	} else {
		d.reads += n
		d.obsReads.Add(n)
	}
}

// Access is AccessN at weight 1. Its only caller is perfbench's
// device-layer replay; the simulator calls AccessN.
func (d *Device) Access(a trace.Access) { d.AccessN(a, 1) }

// Reads returns the 64B reads served by the device MC.
func (d *Device) Reads() uint64 { return d.reads }

// Writes returns the 64B writes served by the device MC.
func (d *Device) Writes() uint64 { return d.writes }

// Controller bundles the four near-memory functions of the M5 platform —
// PAC, WAC, HPT, HWT — on one device, with the MMIO-query plumbing
// M5-manager talks to. Any of the four may be nil (disabled); the paper
// uses PAC/WAC for offline profiling and HPT/HWT online.
type Controller struct {
	Device *Device
	PAC    *pac.Counter
	WAC    *pac.Counter
	HPT    *tracker.Tracker
	HWT    *tracker.Tracker

	mmioQueries uint64
	obsMMIO     *obs.Counter
}

// ControllerConfig selects which functions to instantiate.
type ControllerConfig struct {
	// Span is the device memory range.
	Span mem.Range
	// EnablePAC / EnableWAC instantiate the exact profilers over Span.
	EnablePAC bool
	EnableWAC bool
	// HPT / HWT tracker configurations; nil disables.
	HPT *tracker.Config
	HWT *tracker.Config
	// Metrics, when non-nil, receives device snoop-traffic counters
	// (snoop_reads, snoop_writes) and the controller's mmio_queries.
	Metrics *obs.Registry
}

// NewController builds the device and attaches the selected functions.
func NewController(cfg ControllerConfig) *Controller {
	c := &Controller{Device: NewDevice(cfg.Span)}
	c.Device.obsReads = cfg.Metrics.Counter("snoop_reads")
	c.Device.obsWrites = cfg.Metrics.Counter("snoop_writes")
	c.obsMMIO = cfg.Metrics.Counter("mmio_queries")
	if cfg.EnablePAC {
		c.PAC = pac.NewPAC(cfg.Span)
	}
	if cfg.EnableWAC {
		c.WAC = pac.NewWAC(cfg.Span)
	}
	if cfg.HPT != nil {
		hpt := *cfg.HPT
		hpt.Granularity = tracker.PageGranularity
		c.HPT = tracker.New(hpt)
	}
	if cfg.HWT != nil {
		hwt := *cfg.HWT
		hwt.Granularity = tracker.WordGranularity
		c.HWT = tracker.New(hwt)
	}
	c.attach()
	return c
}

// attach puts the enabled functions on the device's snoop path, in the
// order PAC, WAC, HPT, HWT.
func (c *Controller) attach() {
	if c.PAC != nil {
		c.Device.Attach(c.PAC)
	}
	if c.WAC != nil {
		c.Device.Attach(c.WAC)
	}
	if c.HPT != nil {
		c.Device.Attach(c.HPT)
	}
	if c.HWT != nil {
		c.Device.Attach(c.HWT)
	}
}

// ExternalSinks reports whether sinks beyond the controller's own PAC,
// WAC, HPT and HWT were attached to the device's snoop path. Clone
// carries none of them.
func (c *Controller) ExternalSinks() bool {
	own := 0
	for _, on := range [...]bool{c.PAC != nil, c.WAC != nil, c.HPT != nil, c.HWT != nil} {
		if on {
			own++
		}
	}
	return len(c.Device.snoop) > own
}

// QueryHPT reports and resets the HPT's top-K (an MMIO query over CXL.io).
// It returns nil when HPT is disabled.
func (c *Controller) QueryHPT() []cam.Entry {
	if c.HPT == nil {
		return nil
	}
	c.mmioQueries++
	c.obsMMIO.Inc()
	return c.HPT.Query()
}

// QueryHWT reports and resets the HWT's top-K. Nil when disabled.
func (c *Controller) QueryHWT() []cam.Entry {
	if c.HWT == nil {
		return nil
	}
	c.mmioQueries++
	c.obsMMIO.Inc()
	return c.HWT.Query()
}

// MMIOQueries returns how many tracker queries the host has issued; the
// manager multiplies by the MMIO cost to charge query overhead.
func (c *Controller) MMIOQueries() uint64 { return c.mmioQueries }

// Clone returns an independent copy of the controller: the device's
// traffic counters, the MMIO query count, and a clone of every enabled
// near-memory function, attached to the new device's snoop path in the
// original's order. Sinks attached to the device from outside are
// wiring, not state, and the metrics handles count into the original's
// registry; the clone carries neither.
func (c *Controller) Clone() *Controller {
	d := &Controller{
		Device:      &Device{span: c.Device.span, reads: c.Device.reads, writes: c.Device.writes},
		mmioQueries: c.mmioQueries,
	}
	if c.PAC != nil {
		d.PAC = c.PAC.Clone()
	}
	if c.WAC != nil {
		d.WAC = c.WAC.Clone()
	}
	if c.HPT != nil {
		d.HPT = c.HPT.Clone()
	}
	if c.HWT != nil {
		d.HWT = c.HWT.Clone()
	}
	d.attach()
	return d
}
