package autopilot

import (
	"fmt"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/obs"
)

// sameMapping reports whether two mappings agree entry for entry.
func sameMapping(a, b deploy.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Process-wide autopilot metrics on the shared obs registry, alongside
// the engine/sim/fabric/chaos series on /metrics.
var (
	obsEvals      = obs.Default().Counter("autopilot.evaluations")
	obsActions    = obs.Default().Counter("autopilot.actions")
	obsMigrations = obs.Default().Counter("autopilot.migrations")
	obsScaleUps   = obs.Default().Counter("autopilot.scale_ups")
	obsScaleDowns = obs.Default().Counter("autopilot.scale_downs")
	obsDriftHist  = obs.Default().Histogram("autopilot.drift")
	obsLevelGauge = obs.Default().Gauge("autopilot.level")
)

// Config parameterizes the closed-loop controller.
type Config struct {
	// Window is the observation window in virtual seconds; the loop
	// closes a window, folds its per-server busy time into a drift
	// reading, and evaluates the ladder. Default 5.
	Window float64
	// Detector holds the hysteresis bands and cooldown.
	Detector DetectorConfig
	// MaxMoves is the migration budget K for the touch-up and delta
	// rungs. Default 4.
	MaxMoves int
	// MigrationWeight prices a move at MigrationWeight ×
	// TransferTime(from, to, state); a candidate must beat its price to
	// be selected. Default 0.5.
	MigrationWeight float64
	// EWMAAlpha smooths the observed per-class arrival rates; higher is
	// more reactive. Default 0.5.
	EWMAAlpha float64
	// SettleDelay is the virtual-seconds wait after a chaos incident
	// before the detector is force-armed for a fresh evaluation —
	// settle-then-rebalance instead of repair-and-forget. Default
	// 2×Window.
	SettleDelay float64
	// AllowScale lets the rebalance rung also grow or shrink the fleet
	// with ServerUp/ServerDown. Default off.
	AllowScale bool
	// ScaleUpUtil and ScaleDownUtil are the sustained offered-utilization
	// thresholds (CPU-seconds per second per server) that trigger fleet
	// growth or shrinkage when AllowScale is set. Defaults 0.85 / 0.25.
	ScaleUpUtil   float64
	ScaleDownUtil float64
	// ScaleWindows is how many consecutive windows must breach a scale
	// threshold before the fleet changes size. Default 3.
	ScaleWindows int
	// Tracer, when set, records one "autopilot.evaluate" span per window
	// with drift/level/move attributes. Nil leaves tracing off.
	Tracer *obs.Tracer
}

// WithDefaults fills unset fields with the documented defaults.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = 5
	}
	c.Detector = c.Detector.WithDefaults()
	if c.MaxMoves <= 0 {
		c.MaxMoves = 4
	}
	if c.MigrationWeight <= 0 {
		c.MigrationWeight = 0.5
	}
	if c.EWMAAlpha <= 0 || c.EWMAAlpha > 1 {
		c.EWMAAlpha = 0.5
	}
	if c.SettleDelay <= 0 {
		c.SettleDelay = 2 * c.Window
	}
	if c.ScaleUpUtil <= 0 {
		c.ScaleUpUtil = 0.85
	}
	if c.ScaleDownUtil <= 0 {
		c.ScaleDownUtil = 0.25
	}
	if c.ScaleWindows <= 0 {
		c.ScaleWindows = 3
	}
	return c
}

// Action is one ladder firing, kept in the controller's action log.
type Action struct {
	Time   float64 // virtual time of the window close that fired
	Level  Level
	Drift  float64 // the reading that triggered it
	Moves  int     // operations migrated
	Scaled int     // +1 server grown, -1 shrunk, 0 unchanged
	Detail string
}

// Autopilot is the closed-loop controller. It owns a Detector, the
// EWMA rate estimates, and the escalation policy; the fleet itself is
// shared through a manager.Locked so the chaos supervisor and the HTTP
// API can operate on the same state. Not safe for concurrent use — one
// control loop drives it; concurrent *fleet* access is what Locked is
// for.
type Autopilot struct {
	cfg   Config
	fleet *manager.Locked
	det   *Detector
	rates map[string]float64

	settleAt   float64 // virtual time to force-arm after an incident; <0 none
	hot, cold  int     // consecutive windows beyond the scale thresholds
	actions    []Action
	migrations int
}

// New builds a controller over a shared fleet.
func New(fleet *manager.Locked, cfg Config) *Autopilot {
	return &Autopilot{
		cfg:      cfg.WithDefaults(),
		fleet:    fleet,
		det:      NewDetector(cfg.Detector),
		rates:    map[string]float64{},
		settleAt: -1,
	}
}

// Config returns the normalized configuration.
func (a *Autopilot) Config() Config { return a.cfg }

// Fleet returns the shared fleet the controller drives.
func (a *Autopilot) Fleet() *manager.Locked { return a.fleet }

// Actions returns the ladder firings so far.
func (a *Autopilot) Actions() []Action { return a.actions }

// Migrations returns the total operations migrated so far — the
// zero-thrash assertions read it.
func (a *Autopilot) Migrations() int { return a.migrations }

// Rates returns the current EWMA per-class arrival rates.
func (a *Autopilot) Rates() map[string]float64 {
	out := make(map[string]float64, len(a.rates))
	for k, v := range a.rates {
		out[k] = v
	}
	return out
}

// NoteIncident schedules a settle-then-rebalance: after the chaos
// supervisor's repair at virtual time t, the detector is force-armed at
// t+SettleDelay so the next window close re-evaluates the whole ladder
// on post-repair readings instead of reacting to the transient.
func (a *Autopilot) NoteIncident(t float64) {
	at := t + a.cfg.SettleDelay
	if a.settleAt < 0 || at < a.settleAt {
		a.settleAt = at
	}
}

// classes snapshots the fleet into planner inputs under one lock hold.
func (a *Autopilot) classes() []Class {
	var cs []Class
	_ = a.fleet.Do(func(m *manager.Manager) error {
		for _, id := range m.Workflows() {
			w, _ := m.Workflow(id)
			mp, _ := m.Mapping(id)
			cs = append(cs, Class{ID: id, Workflow: w, Mapping: mp, Rate: a.rates[id]})
		}
		return nil
	})
	return cs
}

// ObserveWindow closes one observation window at virtual time t: loads
// are the window's per-server busy seconds (sim BusyTime accumulated by
// the loop), arrivals the per-class instance counts. It updates the
// EWMA rates, evaluates the drift ladder, and — when a level fires —
// plans, applies the mappings through the fleet, and logs the Action.
// The returned bool reports whether an action fired.
func (a *Autopilot) ObserveWindow(t float64, loads []float64, arrivals map[string]int) (Action, bool) {
	for id, nArr := range arrivals {
		inst := float64(nArr) / a.cfg.Window
		if old, ok := a.rates[id]; ok {
			a.rates[id] = a.cfg.EWMAAlpha*inst + (1-a.cfg.EWMAAlpha)*old
		} else {
			a.rates[id] = inst
		}
	}

	drift := Drift(loads)
	obsEvals.Inc()
	obsDriftHist.Observe(drift)

	if a.settleAt >= 0 && t >= a.settleAt {
		a.settleAt = -1
		a.det.ForceArm()
	}
	level := a.det.Evaluate(t, drift)
	obsLevelGauge.Set(float64(level))

	sp := a.cfg.Tracer.StartSpan("autopilot.evaluate")
	sp.SetFloat("time_vs", t)
	sp.SetFloat("drift", drift)
	sp.SetAttr("level", level.String())
	defer sp.End()

	if level == LevelNone {
		return Action{}, false
	}

	act := a.act(t, level, drift, loads, sp)
	sp.SetInt("moves", int64(act.Moves))
	if act.Moves == 0 && act.Scaled == 0 {
		// The plan found nothing worth doing (e.g. the rate estimates
		// have not diverged from the current placement yet). The level
		// stays armed and no cooldown opens: planning is cheap, and the
		// hysteresis machinery exists to damp *actions*, not evaluations.
		return Action{}, false
	}
	a.actions = append(a.actions, act)
	a.migrations += act.Moves
	obsActions.Inc()
	obsMigrations.Add(int64(act.Moves))
	a.det.ActionTaken(t, level)
	return act, true
}

// act plans and applies one ladder firing.
func (a *Autopilot) act(t float64, level Level, drift float64, loads []float64, sp *obs.Span) Action {
	act := Action{Time: t, Level: level, Drift: drift}

	if level == LevelRebalance && a.cfg.AllowScale {
		act.Scaled = a.maybeScale(loads)
	}

	cs := a.classes()
	if len(cs) == 0 {
		act.Detail = "empty fleet"
		return act
	}
	net := a.fleet.Network()

	var (
		mappings []deploy.Mapping
		moves    []ClassMove
		err      error
	)
	psp := sp.StartChild("autopilot.plan")
	switch level {
	case LevelTouchUp:
		mappings, moves = PlanTouchUp(cs, net, a.cfg.MaxMoves, a.cfg.MigrationWeight)
	case LevelDelta:
		mappings, moves, err = PlanDelta(cs, net, a.cfg.MaxMoves, a.cfg.MigrationWeight)
	default:
		mappings, moves, err = PlanRebalance(cs, net)
	}
	psp.SetInt("moves", int64(len(moves)))
	psp.End()
	if err != nil {
		act.Detail = "plan failed: " + err.Error()
		return act
	}
	if len(moves) == 0 {
		act.Detail = level.String() + ": no move pays for itself"
		return act
	}

	asp := sp.StartChild("autopilot.apply")
	defer asp.End()
	if err := a.apply(cs, mappings); err != nil {
		act.Detail = "apply failed: " + err.Error()
		asp.SetAttr("err", act.Detail)
		return act
	}
	act.Moves = len(moves)
	act.Detail = fmt.Sprintf("%s: %d moves", level, len(moves))
	return act
}

// apply commits the planned mappings to the fleet under one lock hold.
func (a *Autopilot) apply(cs []Class, mappings []deploy.Mapping) error {
	return a.fleet.Do(func(m *manager.Manager) error {
		for i, c := range cs {
			if sameMapping(c.Mapping, mappings[i]) {
				continue
			}
			if err := m.SetMapping(c.ID, mappings[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// maybeScale applies the fleet-scaling policy on the rebalance rung:
// sustained offered utilization above ScaleUpUtil grows the fleet by
// one server (at the fleet's mean power), sustained utilization below
// ScaleDownUtil shrinks it by retiring the least-loaded server. loads
// are the window's busy seconds, so utilization is busy/(window×N).
func (a *Autopilot) maybeScale(loads []float64) int {
	util := Utilization(loads) / a.cfg.Window
	switch {
	case util >= a.cfg.ScaleUpUtil:
		a.hot, a.cold = a.hot+1, 0
	case util <= a.cfg.ScaleDownUtil:
		a.cold, a.hot = a.cold+1, 0
	default:
		a.hot, a.cold = 0, 0
	}
	if a.hot >= a.cfg.ScaleWindows {
		a.hot = 0
		var name string
		var power float64
		_ = a.fleet.Do(func(m *manager.Manager) error {
			n := m.Network()
			for _, s := range n.Servers {
				power += s.PowerHz
			}
			power /= float64(n.N())
			name = fmt.Sprintf("auto-%d", n.N())
			return nil
		})
		if _, err := a.fleet.ServerUp(name, power); err == nil {
			obsScaleUps.Inc()
			return 1
		}
		return 0
	}
	if a.cold >= a.cfg.ScaleWindows {
		a.cold = 0
		if len(loads) <= 1 {
			return 0
		}
		if _, err := a.fleet.ServerDown(leastLoaded(loads)); err == nil {
			obsScaleDowns.Inc()
			return -1
		}
	}
	return 0
}
