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
		c.Device.Attach(c.PAC)
	}
	if cfg.EnableWAC {
		c.WAC = pac.NewWAC(cfg.Span)
		c.Device.Attach(c.WAC)
	}
	if cfg.HPT != nil {
		hpt := *cfg.HPT
		hpt.Granularity = tracker.PageGranularity
		c.HPT = tracker.New(hpt)
		c.Device.Attach(c.HPT)
	}
	if cfg.HWT != nil {
		hwt := *cfg.HWT
		hwt.Granularity = tracker.WordGranularity
		c.HWT = tracker.New(hwt)
		c.Device.Attach(c.HWT)
	}
	return c
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

// Snapshot is a deep copy of the controller's mutable state: device
// traffic counters, MMIO query count, and the state of every enabled
// near-memory function. Attached snoop sinks beyond the built-in four are
// wiring (the AFU fan-out), not state, and must be re-attached by the
// restored runner's owner.
type Snapshot struct {
	reads       uint64
	writes      uint64
	mmioQueries uint64
	pac, wac    *pac.Snapshot
	hpt, hwt    *tracker.Snapshot
}

// Snapshot deep-copies the controller state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		reads:       c.Device.reads,
		writes:      c.Device.writes,
		mmioQueries: c.mmioQueries,
	}
	if c.PAC != nil {
		snap := c.PAC.Snapshot()
		s.pac = &snap
	}
	if c.WAC != nil {
		snap := c.WAC.Snapshot()
		s.wac = &snap
	}
	if c.HPT != nil {
		snap := c.HPT.Snapshot()
		s.hpt = &snap
	}
	if c.HWT != nil {
		snap := c.HWT.Snapshot()
		s.hwt = &snap
	}
	return s
}

// Restore rewinds the controller to a snapshot taken from a controller
// built with the same configuration.
func (c *Controller) Restore(s Snapshot) {
	c.Device.reads = s.reads
	c.Device.writes = s.writes
	c.mmioQueries = s.mmioQueries
	if c.PAC != nil && s.pac != nil {
		c.PAC.Restore(*s.pac)
	}
	if c.WAC != nil && s.wac != nil {
		c.WAC.Restore(*s.wac)
	}
	if c.HPT != nil && s.hpt != nil {
		c.HPT.Restore(*s.hpt)
	}
	if c.HWT != nil && s.hwt != nil {
		c.HWT.Restore(*s.hwt)
	}
}
