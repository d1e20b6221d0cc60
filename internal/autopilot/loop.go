package autopilot

import (
	"fmt"
	"sort"

	"wsdeploy/internal/cost"

	"wsdeploy/internal/chaos"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/sim"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// ClassSpec declares one workflow class the loop deploys and drives.
type ClassSpec struct {
	ID       string
	Workflow *workflow.Workflow
}

// LoopConfig parameterizes one closed-loop run of RunSim.
type LoopConfig struct {
	// Traffic drives the arrival stream; its Classes field is overridden
	// to the number of ClassSpecs.
	Traffic TrafficConfig
	// Pilot parameterizes the controller.
	Pilot Config
	// Enabled toggles the control loop. Disabled, the loop still
	// observes windows and records drift — the baseline the drift study
	// compares against — but never acts.
	Enabled bool
	// Seed feeds the per-instance simulation RNG (split per arrival).
	Seed uint64
	// Chaos, when non-empty, replays crash/rejoin events through a chaos
	// supervisor over the shared fleet; each incident also notifies the
	// controller for settle-then-rebalance.
	Chaos []chaos.Event
	// ChaosCfg tunes the supervisor's latency model.
	ChaosCfg chaos.SupervisorConfig
}

// WindowStat is one closed observation window.
type WindowStat struct {
	Time float64 // window close, virtual seconds
	// Drift is the scale-free detection signal (see Drift); Penalty is
	// the paper's absolute Time Penalty of the window's observed busy
	// seconds — the live SLO the drift study reports. They diverge when a
	// placement wastes cycles on slow servers: that pads Drift's
	// denominator while Penalty counts every second of imbalance.
	Drift    float64
	Penalty  float64
	Level    Level // ladder level fired (LevelNone when idle)
	Moves    int
	Arrivals int
}

// LoopResult summarizes one closed-loop run.
type LoopResult struct {
	Arrivals   int
	PerClass   map[string]int
	Windows    []WindowStat
	Actions    []Action
	Migrations int
	Incidents  int
	// MeanDrift/MeanPenalty average every window; the Tail variants
	// average the last quarter — the post-convergence figures the drift
	// study compares across enabled/disabled runs. TailPenalty is the
	// measured live Time Penalty (seconds per window) the acceptance
	// criterion is stated in.
	MeanDrift   float64
	TailDrift   float64
	MeanPenalty float64
	TailPenalty float64
}

// tally derives the aggregate drift figures from the recorded windows.
func (r *LoopResult) tally() {
	if len(r.Windows) == 0 {
		return
	}
	var drift, pen float64
	for _, w := range r.Windows {
		drift += w.Drift
		pen += w.Penalty
	}
	r.MeanDrift = drift / float64(len(r.Windows))
	r.MeanPenalty = pen / float64(len(r.Windows))
	tail := len(r.Windows) / 4
	if tail == 0 {
		tail = 1
	}
	drift, pen = 0, 0
	for _, w := range r.Windows[len(r.Windows)-tail:] {
		drift += w.Drift
		pen += w.Penalty
	}
	r.TailDrift = drift / float64(tail)
	r.TailPenalty = pen / float64(tail)
}

// deployFleet builds the shared fleet and places every class with the
// manager's valley-filling GreedyPlace, in spec order — the nominal
// placement the drift study starts from.
func deployFleet(classes []ClassSpec, net *network.Network) (*manager.Locked, error) {
	fleet := manager.NewLocked(net)
	for _, c := range classes {
		if err := fleet.Deploy(c.ID, c.Workflow); err != nil {
			return nil, fmt.Errorf("autopilot: deploying %s: %w", c.ID, err)
		}
	}
	return fleet, nil
}

// RunSim drives the closed loop against the discrete-event simulator:
// the generator's arrivals each execute one sim run against the live
// mapping, per-server busy time accumulates into observation windows,
// and at every window close the controller evaluates the ladder.
// Chaos events, if configured, flow through a supervisor over the same
// shared fleet. Fully deterministic given the seeds.
func RunSim(classes []ClassSpec, net *network.Network, cfg LoopConfig) (*LoopResult, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("autopilot: RunSim needs at least one class")
	}
	cfg.Traffic.Classes = len(classes)
	cfg.Traffic = cfg.Traffic.WithDefaults()
	cfg.Pilot = cfg.Pilot.WithDefaults()

	fleet, err := deployFleet(classes, net)
	if err != nil {
		return nil, err
	}
	pilot := New(fleet, cfg.Pilot)

	var sv *chaos.Supervisor
	events := append([]chaos.Event(nil), cfg.Chaos...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	if len(events) > 0 {
		sv = chaos.NewSupervisor(fleet, classes[0].ID, cfg.ChaosCfg)
	}

	res := &LoopResult{PerClass: map[string]int{}}
	rng := stats.NewRNG(cfg.Seed)
	gen := NewGenerator(cfg.Traffic)

	window := cfg.Pilot.Window
	wEnd := window
	winLoads := make([]float64, net.N())
	winArrivals := map[string]int{}
	ei := 0

	closeWindow := func() {
		ws := WindowStat{
			Time: wEnd, Drift: Drift(winLoads),
			Penalty: cost.PenaltyOfLoads(winLoads), Arrivals: sumArrivals(winArrivals),
		}
		if cfg.Enabled {
			if act, fired := pilot.ObserveWindow(wEnd, winLoads, winArrivals); fired {
				ws.Level, ws.Moves = act.Level, act.Moves
			}
		} else {
			// Baseline keeps the rate estimates warm but never acts.
			pilot.observeOnly(winLoads, winArrivals)
		}
		res.Windows = append(res.Windows, ws)
		winLoads = make([]float64, fleet.Network().N())
		for k := range winArrivals {
			delete(winArrivals, k)
		}
		wEnd += window
	}

	runChaosUntil := func(t float64) {
		for ei < len(events) && events[ei].Time <= t {
			ev := events[ei]
			ei++
			switch ev.Kind {
			case chaos.ServerCrash:
				sv.HandleCrash(ev.Time, ev.Server)
				res.Incidents++
				if cfg.Enabled {
					pilot.NoteIncident(ev.Time)
				}
			case chaos.ServerRejoin:
				sv.HandleRejoin(ev.Time, ev.Server)
				res.Incidents++
				if cfg.Enabled {
					pilot.NoteIncident(ev.Time)
				}
			}
		}
	}

	for {
		arr, ok := gen.Next()
		if !ok {
			break
		}
		for wEnd <= arr.Time {
			runChaosUntil(wEnd)
			closeWindow()
		}
		runChaosUntil(arr.Time)

		spec := classes[arr.Class]
		w, _ := fleet.Workflow(spec.ID)
		mp, hasMp := fleet.Mapping(spec.ID)
		if w == nil || !hasMp {
			continue
		}
		cur := fleet.Network()
		one := sim.RunOnce(w, cur, mp, rng.Split(), sim.Config{Seed: cfg.Seed})
		if len(winLoads) != cur.N() {
			winLoads = resize(winLoads, cur.N())
		}
		for s, b := range one.BusyTime {
			if s < len(winLoads) {
				winLoads[s] += b
			}
		}
		res.Arrivals++
		res.PerClass[spec.ID]++
		winArrivals[spec.ID]++
	}
	for wEnd <= cfg.Traffic.Horizon {
		runChaosUntil(wEnd)
		closeWindow()
	}

	res.Actions = pilot.Actions()
	res.Migrations = pilot.Migrations()
	res.tally()
	return res, nil
}

// observeOnly keeps the EWMA rates and drift telemetry warm for a
// disabled (baseline) loop without ever consulting the ladder.
func (a *Autopilot) observeOnly(loads []float64, arrivals map[string]int) {
	for id, nArr := range arrivals {
		inst := float64(nArr) / a.cfg.Window
		if old, ok := a.rates[id]; ok {
			a.rates[id] = a.cfg.EWMAAlpha*inst + (1-a.cfg.EWMAAlpha)*old
		} else {
			a.rates[id] = inst
		}
	}
	obsEvals.Inc()
	obsDriftHist.Observe(Drift(loads))
}

func sumArrivals(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

// resize adapts the window accumulator after a fleet-scale action
// changed the server count mid-window.
func resize(loads []float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, loads)
	return out
}
