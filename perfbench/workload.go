package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/tenant"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// Every workload is a mix of two open-loop streams against the daemon:
//
//   - deploys: POST /v1/deploy at Poisson arrivals;
//   - spec ticks: at a fixed tick rate, POST a new generation of one
//     tenant's spec, POST /v1/reconcile, then read the spec status,
//     GET /v1/fleet/status and GET /v1/deployments.
//
// The workloads differ in which stream dominates and in what the deploys
// carry; a workload without ticks in its window runs them in a probe
// after it. Every end-to-end metric therefore applies to every workload.
// A spec owns its tenant's whole workflow set (specs sharing a tenant
// remove each other's workflows on every pass), so each spec lives on its
// own tenant.

// workload is one named traffic mix. The rates, the latency limit and the
// rate ladder are read from the workload's "why" line in BENCHMARK.json,
// so the file that documents them is the one the benchmark runs.
type workload struct {
	name string
	// algo is the deploy request's algorithm.
	algo string
	// deployOps is the operation count of every deployed workflow.
	deployOps int
	// deployTenants is how many tenants the deploys spread over, each on
	// its own planner shard. Zero sends the deploys to the spec tenants.
	deployTenants int
	// pool, when positive, draws deploy bodies with Zipf skew from this
	// many fixed specs; zero makes every deploy carry a new workflow.
	pool int
	// specTenants is how many tenants hold one spec each.
	specTenants int

	rate   float64       // deploy arrivals per second
	ticks  float64       // spec ticks per second
	limit  time.Duration // latency limit on deploy_p95_ms
	ladder []float64     // deploy rates tried for max_ok_rate_rps, ascending; ladder[0] == rate
}

var workloads = map[string]workload{
	"portfolio-distinct": {algo: "portfolio", deployOps: 25, deployTenants: 4, specTenants: 1},
	"greedy-hot":         {algo: "holm", deployOps: 25, deployTenants: 1, pool: 128, specTenants: 1},
	"spec-churn":         {algo: "holm", deployOps: 20, specTenants: 4},
}

const (
	specWorkflows = 3  // workflows per spec generation
	specOps       = 20 // operations per spec workflow
	servers       = 5
	busBps        = 100 * gen.Mbps
	zipfS         = 0.9
	// networkSeed fixes the bus every request uses, so a workload seed
	// changes the workflows but not the servers they are placed on.
	networkSeed = 20070415
)

// loadWorkload resolves a workload by name and reads its parameters from
// the "why" line of its BENCHMARK.json entry: key=value tokens rate=<n>/s,
// ticks=<n>/s, limit=<n>ms and ladder=<n>,<n>,... (rates per second). It
// also returns the metric names BENCHMARK.json lists for the mode: the
// per_layer ones when traced, else the end_to_end ones.
func loadWorkload(configPath, name string, traced bool) (workload, []string, error) {
	wl, ok := workloads[name]
	if !ok {
		return wl, nil, fmt.Errorf("unknown workload %q", name)
	}
	wl.name = name
	raw, err := os.ReadFile(configPath)
	if err != nil {
		return wl, nil, err
	}
	var cfg struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return wl, nil, fmt.Errorf("%s: %w", configPath, err)
	}
	listed := cfg.EndToEnd
	if traced {
		listed = cfg.PerLayer
	}
	var gated []string
	for _, m := range listed {
		gated = append(gated, m.Name)
	}
	wl, err = parseWhy(wl, cfg.Workloads)
	return wl, gated, err
}

// entry is one named item of BENCHMARK.json.
type entry struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// parseWhy reads the workload's parameters from its why line.
func parseWhy(wl workload, entries []entry) (workload, error) {
	name := wl.name
	var err error
	why := ""
	for _, w := range entries {
		if w.Name == name {
			why = w.Why
		}
	}
	kv := map[string]string{}
	for _, f := range strings.Fields(why) {
		if k, v, ok := strings.Cut(strings.TrimRight(f, ".;,"), "="); ok {
			kv[k] = v
		}
	}
	perSec := func(key string, min float64) (float64, error) {
		v, err := strconv.ParseFloat(strings.TrimSuffix(kv[key], "/s"), 64)
		if err != nil || v < min {
			return 0, fmt.Errorf("workload %s: %s=<n>/s missing or invalid in its why line", name, key)
		}
		return v, nil
	}
	if wl.rate, err = perSec("rate", 1); err != nil {
		return wl, err
	}
	if wl.ticks, err = perSec("ticks", 0); err != nil {
		return wl, err
	}
	ms, err := strconv.ParseFloat(strings.TrimSuffix(kv["limit"], "ms"), 64)
	if err != nil || ms <= 0 {
		return wl, fmt.Errorf("workload %s: limit=<n>ms missing or invalid in its why line", name)
	}
	wl.limit = time.Duration(ms * float64(time.Millisecond))
	for _, s := range strings.Split(kv["ladder"], ",") {
		r, err := strconv.ParseFloat(strings.TrimSuffix(s, "/s"), 64)
		if err != nil || r <= 0 || (len(wl.ladder) > 0 && r <= wl.ladder[len(wl.ladder)-1]) {
			return wl, fmt.Errorf("workload %s: ladder=<rates> missing or not ascending in its why line", name)
		}
		wl.ladder = append(wl.ladder, r)
	}
	if wl.ladder[0] != wl.rate {
		return wl, fmt.Errorf("workload %s: the ladder must start at the offered rate %g/s", name, wl.rate)
	}
	return wl, nil
}

// deployReq is one generated deploy request with what the benchmark
// needs to check its answer.
type deployReq struct {
	body  []byte
	wf    *workflow.Workflow
	model *cost.Model
}

// specGen is one generated spec revision for one tenant.
type specGen struct {
	body []byte
	spec specBody
}

type specBody struct {
	Name string       `json:"name"`
	Spec specContents `json:"spec"`
}

type specContents struct {
	Network   json.RawMessage `json:"network"`
	Workflows []specWorkflow  `json:"workflows"`
}

type specWorkflow struct {
	ID       string          `json:"id"`
	Workflow json.RawMessage `json:"workflow"`
}

type opKind int

const (
	opDeploy opKind = iota
	opTick
)

// op is one scheduled operation of a phase.
type op struct {
	due    time.Duration // offset from the phase start
	kind   opKind
	tenant string
	deploy *deployReq
	spec   *specGen
}

// phase is one open-loop window at a fixed offered rate.
type phase struct {
	rate float64 // deploy arrivals per second
	dur  time.Duration
	ops  []op
}

// inputs is everything a run sends, generated from the seed.
type inputs struct {
	deployTo []string   // tenants receiving deploys
	specTo   []string   // tenants holding one spec each
	initial  []*specGen // generation 1 of each spec tenant, posted at set-up
	phases   []phase    // phases[0] is the timed window, then the ladder rungs
	probe    phase      // control-plane probe; no ops when the window has ticks
}

// generator draws workflows, deploy bodies and spec revisions from one
// seeded stream, in a fixed order, so a seed always yields the same
// inputs.
type generator struct {
	wl      workload
	rng     *stats.RNG
	cfg     gen.Config
	net     *network.Network
	netJSON json.RawMessage
	made    int // workflows generated so far; picks the structure
	pool    []*deployReq
	zipfCDF []float64
	// per spec tenant: the live workflow window and the next id suffix
	specWins [][]specWorkflow
	specNext []int
}

func newGenerator(wl workload, seed uint64) (*generator, error) {
	cfg := gen.ClassC()
	net, err := cfg.BusNetworkWithSpeed(stats.NewRNG(networkSeed), servers, busBps)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := wfio.EncodeNetwork(&buf, net); err != nil {
		return nil, err
	}
	g := &generator{wl: wl, rng: stats.NewRNG(seed), cfg: cfg, net: net, netJSON: compact(buf.Bytes())}
	for range wl.pool {
		d, err := g.newDeploy()
		if err != nil {
			return nil, err
		}
		g.pool = append(g.pool, d)
	}
	total := 0.0
	for k := range wl.pool {
		total += 1 / math.Pow(float64(k+1), zipfS)
		g.zipfCDF = append(g.zipfCDF, total)
	}
	for i := range g.zipfCDF {
		g.zipfCDF[i] /= total
	}
	return g, nil
}

func compact(b []byte) json.RawMessage {
	var out bytes.Buffer
	if err := json.Compact(&out, b); err != nil {
		panic("compacting encoder output: " + err.Error())
	}
	return out.Bytes()
}

// workflow draws the next workflow of m operations, rotating linear,
// bushy, lengthy and hybrid structures.
func (g *generator) workflow(m int) (*workflow.Workflow, json.RawMessage, error) {
	var w *workflow.Workflow
	var err error
	switch g.made % 4 {
	case 0:
		w, err = g.cfg.LinearWorkflow(g.rng, m)
	case 1:
		w, err = g.cfg.GraphWorkflow(g.rng, m, gen.Bushy)
	case 2:
		w, err = g.cfg.GraphWorkflow(g.rng, m, gen.Lengthy)
	default:
		w, err = g.cfg.GraphWorkflow(g.rng, m, gen.Hybrid)
	}
	if err != nil {
		return nil, nil, err
	}
	g.made++
	var buf bytes.Buffer
	if err := wfio.EncodeWorkflow(&buf, w); err != nil {
		return nil, nil, err
	}
	return w, compact(buf.Bytes()), nil
}

func (g *generator) newDeploy() (*deployReq, error) {
	w, wj, err := g.workflow(g.wl.deployOps)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(map[string]any{
		"workflow":  wj,
		"network":   g.netJSON,
		"algorithm": g.wl.algo,
	})
	if err != nil {
		return nil, err
	}
	return &deployReq{body: body, wf: w, model: cost.NewModel(w, g.net)}, nil
}

func (g *generator) nextDeploy() (*deployReq, error) {
	if len(g.pool) == 0 {
		return g.newDeploy()
	}
	u := g.rng.Float64()
	for i, c := range g.zipfCDF {
		if u < c {
			return g.pool[i], nil
		}
	}
	return g.pool[len(g.pool)-1], nil
}

// nextSpec revises spec tenant k: the oldest workflow leaves, a new one
// with a fresh id joins. The first call per tenant fills the window.
func (g *generator) nextSpec(k int) (*specGen, error) {
	n := 1
	if len(g.specWins[k]) == 0 {
		n = specWorkflows
	}
	for range n {
		_, wj, err := g.workflow(specOps)
		if err != nil {
			return nil, err
		}
		g.specWins[k] = append(g.specWins[k], specWorkflow{
			ID: fmt.Sprintf("t%d-w%d", k, g.specNext[k]), Workflow: wj})
		g.specNext[k]++
	}
	if len(g.specWins[k]) > specWorkflows {
		g.specWins[k] = g.specWins[k][1:]
	}
	sb := specBody{Name: "app", Spec: specContents{
		Network:   g.netJSON,
		Workflows: append([]specWorkflow(nil), g.specWins[k]...),
	}}
	body, err := json.Marshal(sb)
	if err != nil {
		return nil, err
	}
	return &specGen{body: body, spec: sb}, nil
}

// phaseOps schedules one window: random deploy arrivals at rate and
// spec ticks at a fixed period.
func (g *generator) phaseOps(in *inputs, rate, tickRate float64, dur time.Duration) (phase, error) {
	ph := phase{rate: rate, dur: dur}
	// Poisson arrivals conditioned on their count: rate·dur uniform
	// times, sorted. Every seed then offers the same number of deploys,
	// so per-op figures do not move with the draw's count.
	n := int(math.Round(rate * dur.Seconds()))
	times := make([]float64, n)
	for i := range times {
		times[i] = g.rng.Float64() * dur.Seconds()
	}
	sort.Float64s(times)
	var deploys []op
	for i, t := range times {
		d, err := g.nextDeploy()
		if err != nil {
			return ph, err
		}
		to := in.deployTo[i%len(in.deployTo)]
		deploys = append(deploys, op{due: seconds(t), kind: opDeploy, tenant: to, deploy: d})
	}
	var ticks []op
	for i := range int(math.Round(tickRate * dur.Seconds())) {
		t := (float64(i) + 0.5) / tickRate
		k := i % len(in.specTo)
		s, err := g.nextSpec(k)
		if err != nil {
			return ph, err
		}
		ticks = append(ticks, op{due: seconds(t), kind: opTick, tenant: in.specTo[k], spec: s})
	}
	// Merge by due time; the scheduler sends in slice order.
	for len(deploys) > 0 || len(ticks) > 0 {
		if len(ticks) == 0 || (len(deploys) > 0 && deploys[0].due <= ticks[0].due) {
			ph.ops, deploys = append(ph.ops, deploys[0]), deploys[1:]
		} else {
			ph.ops, ticks = append(ph.ops, ticks[0]), ticks[1:]
		}
	}
	return ph, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// rungDuration is the length of each ladder rung above the offered rate.
const rungDuration = 4 * time.Second

// A workload without spec ticks in its window measures the control plane
// in a probe phase after it: probeTicks ticks at probeRate, with no
// deploys beside them, against the state the window left behind. Ticks
// beside CPU-bound planning would time the Go scheduler, not the spec
// path.
const (
	probeTicks = 200
	probeRate  = 40.0
)

// generate builds a run's inputs: tenants, the set-up spec generation of
// every spec tenant, the timed window at the offered rate, one rung per
// higher ladder rate (spec ticks scale with the deploy rate) and, for a
// workload without ticks of its own, the control-plane probe.
func generate(wl workload, seed uint64, window time.Duration) (*inputs, error) {
	g, err := newGenerator(wl, seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	for k := range wl.specTenants {
		in.specTo = append(in.specTo, fmt.Sprintf("spec-%d", k))
	}
	in.deployTo = in.specTo
	if wl.deployTenants > 0 {
		if in.deployTo, err = shardTenants(wl.deployTenants); err != nil {
			return nil, err
		}
	}
	g.specWins = make([][]specWorkflow, wl.specTenants)
	g.specNext = make([]int, wl.specTenants)
	for k := range in.specTo {
		s, err := g.nextSpec(k)
		if err != nil {
			return nil, err
		}
		in.initial = append(in.initial, s)
	}
	for i, r := range wl.ladder {
		dur := rungDuration
		if i == 0 {
			dur = window
		}
		ph, err := g.phaseOps(in, r, wl.ticks*r/wl.rate, dur)
		if err != nil {
			return nil, err
		}
		in.phases = append(in.phases, ph)
	}
	if wl.ticks == 0 {
		if in.probe, err = g.phaseOps(in, 0, probeRate, seconds(probeTicks/probeRate)); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// shardTenants names n deploy tenants that land on n distinct planner
// shards of a default-sharded daemon, using the registry's own
// consistent-hash assignment.
func shardTenants(n int) ([]string, error) {
	reg, err := tenant.Open(tenant.Config{})
	if err != nil {
		return nil, err
	}
	defer reg.Close()
	if n > reg.Shards() {
		return nil, fmt.Errorf("%d deploy tenants but only %d shards", n, reg.Shards())
	}
	taken := map[int]bool{}
	var names []string
	for i := 0; len(names) < n; i++ {
		t, err := reg.Create(fmt.Sprintf("deploy-%d", i), tenant.Quota{})
		if err != nil {
			return nil, err
		}
		if !taken[t.Shard()] {
			taken[t.Shard()] = true
			names = append(names, t.Name())
		}
	}
	return names, nil
}
