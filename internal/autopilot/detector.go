package autopilot

import (
	"fmt"

	"wsdeploy/internal/cost"
)

// Level is a rung of the escalation ladder. Higher levels are more
// disruptive and carry wider hysteresis bands.
type Level int

const (
	LevelNone      Level = iota // drift within tolerance; do nothing
	LevelTouchUp                // re-place the worst few operations in place
	LevelDelta                  // bounded-migration replan (≤ K moves)
	LevelRebalance              // full portfolio rebalance ± fleet scaling
)

// String names a level for logs and metrics.
func (l Level) String() string {
	switch l {
	case LevelNone:
		return "none"
	case LevelTouchUp:
		return "touchup"
	case LevelDelta:
		return "delta"
	case LevelRebalance:
		return "rebalance"
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Band is one level's hysteresis pair: the level fires when drift rises
// above Enter and re-arms only after drift falls back below Exit. The
// gap between them is what prevents flapping around a single threshold.
type Band struct {
	Enter float64
	Exit  float64
}

// DetectorConfig sets the drift detector's bands and cooldown. All
// drifts are normalized Time Penalty (see Drift), so bands are
// dimensionless fractions.
type DetectorConfig struct {
	// TouchUp, Delta and Rebalance are the per-level hysteresis bands.
	// Defaults: {0.08, 0.05}, {0.15, 0.10}, {0.30, 0.20}.
	TouchUp, Delta, Rebalance Band
	// Cooldown is the virtual-seconds refractory period after any action
	// during which no further action fires, letting the substrate settle
	// before the next reading is trusted. Default 10.
	Cooldown float64
	// ReArm is the virtual-seconds period after which a fired level
	// re-arms even though drift never fell below its Exit band: drift
	// that *stays* elevated long after an action means conditions have
	// shifted again (a ramping class mix), not that the action is still
	// settling. Default 4×Cooldown.
	ReArm float64
}

// WithDefaults fills unset fields with the documented defaults.
func (c DetectorConfig) WithDefaults() DetectorConfig {
	def := func(b, d Band) Band {
		if b.Enter <= 0 {
			b.Enter = d.Enter
		}
		if b.Exit <= 0 || b.Exit > b.Enter {
			b.Exit = b.Enter * d.Exit / d.Enter
		}
		return b
	}
	c.TouchUp = def(c.TouchUp, Band{0.08, 0.05})
	c.Delta = def(c.Delta, Band{0.15, 0.10})
	c.Rebalance = def(c.Rebalance, Band{0.30, 0.20})
	if c.Cooldown <= 0 {
		c.Cooldown = 10
	}
	if c.ReArm <= 0 {
		c.ReArm = 4 * c.Cooldown
	}
	return c
}

// Drift is the live SLO: the paper's Time Penalty of the observed
// per-server loads, normalized by the total observed load. The
// normalization makes the signal scale-free — doubling every server's
// load (a diurnal peak) leaves it unchanged; only *imbalance* moves it.
// An empty window reads as zero drift.
func Drift(loads []float64) float64 {
	var total float64
	for _, l := range loads {
		total += l
	}
	if total <= 0 {
		return 0
	}
	return cost.PenaltyOfLoads(loads) / total
}

// Detector turns a stream of drift readings into escalation decisions
// with per-level hysteresis and a shared cooldown. Not safe for
// concurrent use; the control loop owns it.
type Detector struct {
	cfg           DetectorConfig
	armed         [LevelRebalance + 1]bool
	rearmAt       [LevelRebalance + 1]float64 // time-based re-arm deadline per level
	cooldownUntil float64
	lastDrift     float64
	forced        bool
}

// NewDetector builds a detector with every level armed.
func NewDetector(cfg DetectorConfig) *Detector {
	d := &Detector{cfg: cfg.WithDefaults()}
	for l := LevelTouchUp; l <= LevelRebalance; l++ {
		d.armed[l] = true
	}
	return d
}

// Config returns the normalized configuration.
func (d *Detector) Config() DetectorConfig { return d.cfg }

// LastDrift returns the most recently evaluated drift reading.
func (d *Detector) LastDrift() float64 { return d.lastDrift }

// band returns the hysteresis band of an actionable level.
func (d *Detector) band(l Level) Band {
	switch l {
	case LevelTouchUp:
		return d.cfg.TouchUp
	case LevelDelta:
		return d.cfg.Delta
	default:
		return d.cfg.Rebalance
	}
}

// Evaluate ingests one drift reading at virtual time t and returns the
// level to act at — the highest armed level whose Enter threshold the
// drift exceeds — or LevelNone during cooldown, below every band, or
// when the indicated levels are still disarmed from a previous action.
// Levels re-arm when drift falls below their Exit threshold, so a level
// fires at most once per excursion above its band.
func (d *Detector) Evaluate(t, drift float64) Level {
	d.lastDrift = drift
	for l := LevelTouchUp; l <= LevelRebalance; l++ {
		if !d.armed[l] && (drift < d.band(l).Exit || t >= d.rearmAt[l]) {
			d.armed[l] = true
		}
	}
	forced := d.forced
	d.forced = false
	if t < d.cooldownUntil && !forced {
		return LevelNone
	}
	for l := LevelRebalance; l >= LevelTouchUp; l-- {
		if d.armed[l] && drift >= d.band(l).Enter {
			return l
		}
	}
	return LevelNone
}

// ActionTaken records that the loop acted at level l at virtual time t:
// levels up to and including l disarm (they re-arm below their Exit
// band) and the cooldown window opens. Higher levels stay armed so the
// ladder can still escalate if the action did not cure the drift.
func (d *Detector) ActionTaken(t float64, l Level) {
	for x := LevelTouchUp; x <= l; x++ {
		d.armed[x] = false
		d.rearmAt[x] = t + d.cfg.ReArm
	}
	d.cooldownUntil = t + d.cfg.Cooldown
}

// ForceArm re-arms every level and lifts the current cooldown for the
// next Evaluate call — the settle-then-rebalance entry point the chaos
// integration uses after an incident's settle delay expires.
func (d *Detector) ForceArm() {
	for l := LevelTouchUp; l <= LevelRebalance; l++ {
		d.armed[l] = true
	}
	d.forced = true
}
