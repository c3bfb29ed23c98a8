package m5

import (
	"m5/internal/cxl"
	"m5/internal/mem"
	"m5/internal/obs"
	"m5/internal/tiermem"
)

// ManagerConfig configures the whole M5-manager.
type ManagerConfig struct {
	// Mode selects the Nominator mechanism.
	Mode NominatorMode
	// Elector holds Algorithm 1's tunables.
	Elector ElectorConfig
	// Profile disables migration (Figure 8's access-count-ratio mode):
	// nominations are recorded but not promoted.
	Profile bool
	// HotListCap bounds the recorded hot list in profile mode.
	HotListCap int
	// Metrics, when non-nil, receives the manager's decision counters
	// (ticks, nominations, promoted) and elector period-change events.
	Metrics *obs.Registry
}

// Manager is the assembled M5-manager: Monitor + Nominator + Elector +
// Promoter over one CXL controller and one tiered-memory system. It
// implements the same daemon contract as the CPU-driven baselines, so the
// simulator schedules them interchangeably — but unlike them it consumes
// almost no kernel time: identification happens in the CXL controller and
// the host only pays for MMIO queries.
type Manager struct {
	cfg      ManagerConfig
	sys      *tiermem.System
	ctrl     *cxl.Controller
	monitor  *Monitor
	nom      *Nominator
	promoter *Promoter
	elector  *Elector

	period  uint64
	hotSeen map[mem.PFN]bool
	hotList []mem.PFN
	queries uint64
	ticks   uint64

	metrics      *obs.Registry
	obsTicks     *obs.Counter
	obsNominated *obs.Counter
	obsPromoted  *obs.Counter
}

// NewManager wires the components over a system and controller.
func NewManager(sys *tiermem.System, ctrl *cxl.Controller, cfg ManagerConfig) *Manager {
	m := &Manager{
		cfg:     cfg,
		sys:     sys,
		ctrl:    ctrl,
		monitor: NewMonitor(sys),
		nom:     NewNominator(ctrl, cfg.Mode),
		hotSeen: make(map[mem.PFN]bool),
	}
	m.promoter = NewPromoter(sys)
	m.elector = NewElector(m.monitor, m.nom, m.promoter, cfg.Elector)
	if cfg.Profile {
		// Profile mode queries at the default frequency (there is no
		// Elector step to adapt the period).
		m.period = 1e9 / fDefault
	} else {
		m.period = minPeriodNs
	}
	m.metrics = cfg.Metrics
	m.obsTicks = cfg.Metrics.Counter("ticks")
	m.obsNominated = cfg.Metrics.Counter("nominations")
	m.obsPromoted = cfg.Metrics.Counter("promoted")
	return m
}

// Name implements the migration-daemon contract.
func (m *Manager) Name() string { return "m5-" + m.cfg.Mode.String() }

// PeriodNs returns the current adaptive Elector period.
func (m *Manager) PeriodNs() uint64 { return m.period }

// Tick runs one manager iteration: in normal mode a full Algorithm 1 step;
// in profile mode only nomination + recording. MMIO query cost is charged
// to kernel time — the entirety of M5's identification overhead.
func (m *Manager) Tick(nowNs uint64) {
	m.ticks++
	m.obsTicks.Inc()
	before := m.ctrl.MMIOQueries()
	nomBefore := m.nom.Nominated()
	if m.cfg.Profile {
		for _, h := range m.nom.Nominate() {
			m.record(h.PFN)
		}
		m.monitor.Sample(nowNs)
	} else {
		migBefore := m.elector.Migrations()
		oldPeriod := m.period
		m.period = m.elector.Step(nowNs)
		m.obsPromoted.Add(m.elector.Migrations() - migBefore)
		if m.period != oldPeriod {
			m.metrics.Emit(nowNs, "period_change", 0, m.period)
		}
	}
	m.obsNominated.Add(m.nom.Nominated() - nomBefore)
	m.queries += m.ctrl.MMIOQueries() - before
	m.sys.AddKernelNs((m.ctrl.MMIOQueries() - before) * m.sys.Costs().MMIOReadNs)
}

// Stats implements tiermem.Policy. In profile mode Promoted reports the
// recorded (nominated-but-not-migrated) hot list length.
func (m *Manager) Stats() tiermem.PolicyStats {
	s := tiermem.PolicyStats{
		Ticks:      m.ticks,
		Identified: m.nom.Nominated(),
		PeriodNs:   m.period,
	}
	if m.cfg.Profile {
		s.Promoted = uint64(len(m.hotList))
	} else {
		s.Promoted = m.elector.Migrations()
		s.Skipped = m.elector.Skipped()
	}
	return s
}

func (m *Manager) record(p mem.PFN) {
	if m.hotSeen[p] {
		return
	}
	if m.cfg.HotListCap > 0 && len(m.hotList) >= m.cfg.HotListCap {
		return
	}
	m.hotSeen[p] = true
	m.hotList = append(m.hotList, p)
}

// HotPFNs returns the recorded hot list (profile mode) or, in migration
// mode, the pages promoted so far are reflected in system counters
// instead.
func (m *Manager) HotPFNs() []mem.PFN {
	out := make([]mem.PFN, len(m.hotList))
	copy(out, m.hotList)
	return out
}

// Elector exposes the Algorithm 1 state for inspection.
func (m *Manager) Elector() *Elector { return m.elector }

// Promoter exposes promotion statistics.
func (m *Manager) Promoter() *Promoter { return m.promoter }

// Queries returns the MMIO tracker queries issued so far.
func (m *Manager) Queries() uint64 { return m.queries }
