package sim

import (
	"ctdvs/internal/ir"
	"ctdvs/internal/volt"
)

// IntervalStats summarizes machine activity over one governor interval.
type IntervalStats struct {
	Mode         int     // mode index during the window
	WallUS       float64 // window wall-clock length
	ActiveCycles int64   // executed (ungated) cycles in the window
	StallUS      float64 // clock-gated time waiting on memory
	Misses       int64   // main-memory misses issued in the window
}

// Utilization returns the fraction of the window the clock was running.
func (s IntervalStats) Utilization() float64 {
	if s.WallUS <= 0 {
		return 1
	}
	u := 1 - s.StallUS/s.WallUS
	if u < 0 {
		return 0
	}
	return u
}

// Governor is a run-time DVS policy: at the end of each interval it sees the
// window's statistics and returns the mode index to run next. This models
// the OS-level interval-based schedulers of the paper's related work
// (Section 2: Lorch & Smith, Ghiasi's IPC-directed DVS, Marculescu's
// miss-directed DVS) as a baseline family against compile-time scheduling.
type Governor interface {
	Decide(s IntervalStats) int
}

// UtilizationGovernor is a classic PAST-style policy: drop one mode when
// utilization falls below Low (the CPU is mostly waiting on memory), raise
// one mode when it exceeds High.
type UtilizationGovernor struct {
	Modes *volt.ModeSet
	// Low/High are utilization thresholds with Low < High, e.g. 0.6/0.9.
	Low, High float64
}

// Decide implements Governor.
func (g *UtilizationGovernor) Decide(s IntervalStats) int {
	u := s.Utilization()
	switch {
	case u < g.Low && s.Mode > 0:
		return s.Mode - 1
	case u > g.High && s.Mode < g.Modes.Len()-1:
		return s.Mode + 1
	}
	return s.Mode
}

// MissRateGovernor follows Marculescu-style miss-directed DVS: when misses
// per wall-microsecond exceed HighMissesPerUS, drop to the slowest mode (the
// memory system is the bottleneck); when below LowMissesPerUS, return to the
// fastest.
type MissRateGovernor struct {
	Modes                           *volt.ModeSet
	LowMissesPerUS, HighMissesPerUS float64
}

// Decide implements Governor.
func (g *MissRateGovernor) Decide(s IntervalStats) int {
	if s.WallUS <= 0 {
		return s.Mode
	}
	rate := float64(s.Misses) / s.WallUS
	switch {
	case rate > g.HighMissesPerUS:
		return 0
	case rate < g.LowMissesPerUS:
		return g.Modes.Len() - 1
	}
	return s.Mode
}

// DeadlineGovernor is a PACE-style policy (Lorch & Smith in the paper's
// related work): it knows the program's total cycle count (from a profile)
// and the deadline, and at each tick picks the slowest mode whose frequency
// covers the remaining cycles in the remaining time, corrected by the
// observed effective rate (memory stalls make wall-clock progress slower
// than f, so the required frequency is scaled by the measured f/rate).
type DeadlineGovernor struct {
	Modes       *volt.ModeSet
	TotalCycles int64
	DeadlineUS  float64
	// Margin over-provisions the required frequency (e.g. 1.05) to absorb
	// phase changes between ticks.
	Margin float64

	doneCycles int64
	nowUS      float64
}

// Decide implements Governor.
func (g *DeadlineGovernor) Decide(s IntervalStats) int {
	g.doneCycles += s.ActiveCycles
	g.nowUS += s.WallUS

	remainingCycles := g.TotalCycles - g.doneCycles
	remainingUS := g.DeadlineUS - g.nowUS
	if remainingCycles <= 0 {
		return 0 // done: coast at the slowest mode
	}
	if remainingUS <= 0 {
		return g.Modes.Len() - 1 // already late: sprint
	}
	required := float64(remainingCycles) / remainingUS
	// Correct for stalls: at mode f we progressed ActiveCycles over WallUS,
	// an effective rate below f; assume the same dilation ahead.
	if s.WallUS > 0 && s.ActiveCycles > 0 {
		effective := float64(s.ActiveCycles) / s.WallUS
		f := g.Modes.Mode(s.Mode).F
		if effective > 0 && effective < f {
			required *= f / effective
		}
	}
	if g.Margin > 0 {
		required *= g.Margin
	}
	for i := 0; i < g.Modes.Len(); i++ {
		if g.Modes.Mode(i).F >= required {
			return i
		}
	}
	return g.Modes.Len() - 1
}

// RunGoverned executes the program under a run-time interval-based DVS
// policy: every intervalUS of wall-clock time the governor inspects the
// window statistics and may switch modes, paying the regulator's transition
// costs. Mode checks happen at block boundaries (the finest grain an OS tick
// could preempt our abstract blocks).
func (m *Machine) RunGoverned(p *ir.Program, in ir.Input, modes *volt.ModeSet,
	reg volt.Regulator, initial int, intervalUS float64, g Governor) (*Result, error) {

	if modes == nil || g == nil {
		return nil, errf("nil modes or governor")
	}
	if initial < 0 || initial >= modes.Len() {
		return nil, errf("initial mode %d out of range", initial)
	}
	if intervalUS <= 0 {
		return nil, errf("interval must be positive")
	}
	gr := &govRun{modes: modes, reg: reg, intervalUS: intervalUS, g: g}
	return m.run(p, in, nil, gr, modes.Mode(initial))
}
