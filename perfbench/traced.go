package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsdeploy/internal/cost"
	"wsdeploy/internal/deploy"
	"wsdeploy/internal/engine"
	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/httpapi"
	"wsdeploy/internal/ingest"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
	"wsdeploy/internal/wfio"
)

// The traced run replays a phase's generated ops in-process, through the
// same public functions the daemon's handlers call, in the same order:
// tenant admission, wfio decoding, the ingest pipeline in front of the
// engine, the cost model, the fsync-always store and, for spec ticks, the
// reconciler driving a journaled manager fleet. Spans are recorded here,
// around each call; the daemon itself is not instrumented. With a nil
// tracer the replay records nothing, which gives the untraced time of
// the same in-process path.

// span is one timed call. Spans of one op share a trace id; Parent is 0
// for the op's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the benchmark writes them out.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

// active is a span that has started and not yet ended.
type active struct {
	t                 *tracer
	trace, id, parent uint64
	name              string
	start             time.Time
}

// root starts a trace; a nil tracer returns a nil span, on which every
// method is a no-op.
func (t *tracer) root(name string, start time.Time) *active {
	if t == nil {
		return nil
	}
	id := t.ids.Add(1)
	return &active{t: t, trace: id, id: id, name: name, start: start}
}

func (a *active) child(name string) *active {
	if a == nil {
		return nil
	}
	return &active{t: a.t, trace: a.trace, id: a.t.ids.Add(1), parent: a.id, name: name, start: time.Now()}
}

func (a *active) end() time.Time {
	now := time.Now()
	a.endAt(now)
	return now
}

func (a *active) endAt(end time.Time) {
	if a == nil {
		return
	}
	s := span{a.trace, a.id, a.parent, a.name, a.start.Sub(a.t.t0).Nanoseconds(), end.Sub(a.t.t0).Nanoseconds()}
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, s)
	a.t.mu.Unlock()
}

// record adds a finished child span of a with explicit bounds.
func (a *active) record(name string, start, end time.Time) {
	if c := a.child(name); c != nil {
		c.start = start
		c.endAt(end)
	}
}

// copySpans returns a copy of the spans recorded so far.
func (t *tracer) copySpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// countingFS is the store's filesystem with a tally of bytes written.
type countingFS struct {
	faultfs.FS
	written atomic.Int64
}

type countingFile struct {
	faultfs.File
	n *atomic.Int64
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{f, &c.written}, nil
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}

// timedPlanner is the engine as the ingest pipeline's planner, noting
// when each planning run started and ended so a deploy can split its
// Submit time into queue wait and planning.
type timedPlanner struct {
	*engine.Engine
	mu   sync.Mutex
	runs map[string][2]time.Time
}

func (p *timedPlanner) Run(ctx context.Context, req engine.Request) (*engine.Result, error) {
	start := time.Now()
	res, err := p.Engine.Run(ctx, req)
	end := time.Now()
	key := p.RequestKey(req)
	p.mu.Lock()
	p.runs[key] = [2]time.Time{start, end}
	p.mu.Unlock()
	return res, err
}

func (p *timedPlanner) lastRun(req engine.Request) ([2]time.Time, bool) {
	key := p.RequestKey(p.Canonicalize(req))
	p.mu.Lock()
	defer p.mu.Unlock()
	r, ok := p.runs[key]
	return r, ok
}

// tstate is one tenant's in-process state: its store, deployment ledger
// and, for spec tenants, the reconciler over a journaled fleet. snapMu is
// held shared by mutations and exclusively while a snapshot captures the
// state, as in the daemon.
type tstate struct {
	t        *tenant.Tenant
	st       *store.Store
	snapMu   sync.RWMutex
	snapIOMu sync.Mutex

	ledgerMu sync.Mutex
	entries  []ledgerEntry
	nextID   int // behind the "dep-<n>" ids, as in the daemon's ledger

	spec *specTenant
}

// ledgerEntry is the daemon's deployment.created record and ledger
// entry, field for field.
type ledgerEntry struct {
	ID        string          `json:"id"`
	Algorithm string          `json:"algorithm"`
	Mapping   []int           `json:"mapping"`
	Metrics   httpapi.Metrics `json:"metrics"`
}

// metricsOf is the cost report the daemon attaches to a mapping.
func metricsOf(model *cost.Model, mp deploy.Mapping) httpapi.Metrics {
	res := model.Evaluate(mp)
	return httpapi.Metrics{
		ExecTime:    res.ExecTime,
		TimePenalty: res.TimePenalty,
		Combined:    res.Combined,
		Makespan:    model.MakespanEstimate(mp),
		Loads:       res.Loads,
	}
}

// specTenant is one tenant's declarative domain. mu serialises spec
// revisions and passes; cur is the span the fleet journal's appends nest
// under while mu is held. tickMu runs one tick at a time, as the load
// generator does against the daemon.
type specTenant struct {
	tickMu sync.Mutex
	mu     sync.Mutex
	set    *reconcile.Set
	exec   *reconcile.FleetExecutor
	rec    *reconcile.Reconciler
	cur    *active
}

// journal appends a tenant's fleet and reconcile records to its store,
// each under a store.append span.
type journal struct{ ts *tstate }

func (j journal) Record(typ string, data any) error {
	sp := j.ts.spec.cur.child("store.append")
	defer sp.end()
	_, err := j.ts.st.Append(typ, data)
	return err
}

// tracedExec times each deploy step of a pass — the fleet Deploy or
// Adopt — as manager.deploy.
type tracedExec struct {
	*reconcile.FleetExecutor
	spec *specTenant
}

func (e tracedExec) Apply(step reconcile.Step, v reconcile.Versioned, c *reconcile.Compiled) (int, error) {
	if step.Kind != reconcile.StepDeploy {
		return e.FleetExecutor.Apply(step, v, c)
	}
	parent := e.spec.cur
	sp := parent.child("manager.deploy")
	e.spec.cur = sp
	n, err := e.FleetExecutor.Apply(step, v, c)
	e.spec.cur = parent
	sp.end()
	return n, err
}

// inproc is the in-process system the traced run drives. tr is nil in
// the untraced replay, and so are the planners' timing wrappers.
type inproc struct {
	tr       *tracer
	reg      *tenant.Registry
	fs       *countingFS
	planners []*timedPlanner
	pipes    []*ingest.Pipeline
	states   map[string]*tstate
	t0       time.Time // the reconciler's clock origin

	mu           sync.Mutex
	planMs       map[string][]float64 // per planner key, non-cached plans
	restMs       []float64            // per portfolio run, all other planners summed
	strictWins   int
	snapBytes    []int
	passes       int
	passActions  int
	portfolioRun int
}

func newInproc(dir string, in *inputs, traced bool) (*inproc, error) {
	cfs := &countingFS{FS: faultfs.OS()}
	reg, err := tenant.Open(tenant.Config{DataDir: dir, Store: store.Options{Sync: store.SyncAlways, FS: cfs}})
	if err != nil {
		return nil, err
	}
	p := &inproc{
		reg:    reg,
		fs:     cfs,
		states: map[string]*tstate{},
		planMs: map[string][]float64{},
		t0:     time.Now(),
	}
	if traced {
		p.tr = &tracer{t0: time.Now()}
	}
	for range reg.Shards() {
		eng := engine.MustNew(engine.Options{})
		if !traced {
			p.pipes = append(p.pipes, ingest.New(eng, ingest.Config{}))
			continue
		}
		tp := &timedPlanner{Engine: eng, runs: map[string][2]time.Time{}}
		p.planners = append(p.planners, tp)
		p.pipes = append(p.pipes, ingest.New(tp, ingest.Config{}))
	}
	for _, name := range append(append([]string(nil), in.deployTo...), in.specTo...) {
		if p.states[name] != nil {
			continue
		}
		t, err := reg.Create(name, tenant.Quota{})
		if err != nil {
			p.close()
			return nil, err
		}
		p.states[name] = &tstate{t: t, st: t.Store()}
	}
	for _, name := range in.specTo {
		p.states[name].spec = p.newSpecTenant(p.states[name])
	}
	return p, nil
}

func (p *inproc) newSpecTenant(ts *tstate) *specTenant {
	sp := &specTenant{set: reconcile.NewSet()}
	j := journal{ts}
	sp.exec = &reconcile.FleetExecutor{
		CreateFleet: func(n *network.Network) (*manager.Locked, error) {
			fleet := manager.NewLocked(n)
			genesis, err := manager.CreateRecord(fleet)
			if err != nil {
				return nil, err
			}
			if err := j.Record(manager.RecFleetCreate, genesis); err != nil {
				return nil, err
			}
			fleet.AttachJournal(j)
			return fleet, nil
		},
	}
	sp.rec = reconcile.New(sp.set, tracedExec{sp.exec, sp}, reconcile.Config{
		OnObserved: func(name string, gen uint64) error {
			return j.Record(reconcile.RecObserved, reconcile.ObservedRecord{Name: name, Generation: gen})
		},
	})
	return sp
}

func (p *inproc) close() {
	for _, pipe := range p.pipes {
		pipe.Close()
	}
	_ = p.reg.Close() // the run is over; every acknowledged append was already synced
}

// prepare posts and converges generation 1 of every spec, untimed.
func (p *inproc) prepare(in *inputs) error {
	for k, sg := range in.initial {
		o := op{kind: opTick, tenant: in.specTo[k], spec: sg}
		if out := p.tick(context.Background(), &o, time.Now()); !out.ok {
			return fmt.Errorf("tenant %s: initial spec did not converge in-process %v", in.specTo[k], out.bad)
		}
	}
	if p.tr != nil {
		p.tr.mu.Lock()
		p.tr.spans = nil
		p.tr.mu.Unlock()
	}
	p.mu.Lock()
	p.passes, p.passActions, p.snapBytes = 0, 0, nil
	p.mu.Unlock()
	return nil
}

func (p *inproc) exec(ctx context.Context, o *op, due time.Time) outcome {
	if o.kind == opDeploy {
		return p.deploy(ctx, o, due)
	}
	return p.tick(ctx, o, due)
}

// deploy mirrors POST /v1/deploy, then checks the answer as the load
// generator does, under a separate "check" trace: the deploy's own trace
// ends where the daemon would write its response.
func (p *inproc) deploy(ctx context.Context, o *op, due time.Time) outcome {
	out := outcome{requests: 1}
	root := p.tr.root("deploy", due)
	root.record("loadgen.queue", due, time.Now())
	e, bad, ok := p.serveDeploy(ctx, root, o)
	out.done = root.end()
	out.latency = out.done.Sub(due)
	if !ok {
		return out.fail(bad)
	}
	chk := p.tr.root("check", out.done)
	sp := chk.child("cost.combined")
	c, bad := checkDeploy(o.deploy, e.Mapping, e.Metrics.Combined)
	sp.end()
	chk.end()
	if bad != "" {
		return out.fail(bad)
	}
	out.ok, out.appends, out.cost = true, 1, c
	return out
}

// serveDeploy is the daemon's deploy handler: admission, decoding,
// planning through the shard's ingest pipeline, the constraint check and
// cost report, the journaled ledger append and the response encoding.
// A refusal returns ok false with bad empty; a wrong answer sets bad.
func (p *inproc) serveDeploy(ctx context.Context, root *active, o *op) (e ledgerEntry, bad string, ok bool) {
	ts := p.states[o.tenant]
	sp := root.child("tenant.admit")
	release, dec := p.reg.Admit(ts.t)
	sp.end()
	if !dec.OK {
		return e, "", false
	}
	defer release()

	sp = root.child("wfio.decode")
	var body struct {
		Workflow    json.RawMessage `json:"workflow"`
		Network     json.RawMessage `json:"network"`
		Algorithm   string          `json:"algorithm"`
		Seed        uint64          `json:"seed"`
		MaxExecTime float64         `json:"maxExecTime,omitempty"`
		MaxPenalty  float64         `json:"maxTimePenalty,omitempty"`
		MaxLoad     float64         `json:"maxServerLoad,omitempty"`
		MaxMakespan float64         `json:"maxMakespan,omitempty"`
	}
	err := json.Unmarshal(o.deploy.body, &body)
	req := engine.Request{Seed: body.Seed}
	if err == nil {
		req.Workflow, err = wfio.DecodeWorkflow(bytes.NewReader(body.Workflow))
	}
	if err == nil {
		req.Network, err = wfio.DecodeNetwork(bytes.NewReader(body.Network))
	}
	sp.end()
	if err != nil {
		return e, "decoding a generated request: " + err.Error(), false
	}
	if body.Algorithm != httpapi.PortfolioAlgorithm {
		req.Algorithms = []string{body.Algorithm}
	}

	shard := ts.t.Shard()
	sp = root.child("ingest.submit")
	res, err := p.pipes[shard].Submit(ctx, req)
	submitEnd := time.Now()
	// The latest run of this request's key; one that does not overlap the
	// Submit served an earlier request.
	if sp != nil {
		if run, ok := p.planners[shard].lastRun(req); ok && run[1].After(sp.start) && run[0].Before(submitEnd) {
			s, e := run[0], run[1]
			if s.Before(sp.start) {
				s = sp.start
			}
			if e.After(submitEnd) {
				e = submitEnd
			}
			sp.record("engine.run", s, e)
		}
	}
	sp.endAt(submitEnd)
	if err != nil || res.Best == nil {
		return e, "", false
	}
	if p.tr != nil {
		p.notePlans(res)
	}

	sp = root.child("cost.model_build")
	model := cost.NewModel(req.Workflow, req.Network)
	sp.end()
	sp = root.child("cost.check")
	cons := cost.Constraints{
		MaxExecTime:    body.MaxExecTime,
		MaxTimePenalty: body.MaxPenalty,
		MaxServerLoad:  body.MaxLoad,
		MaxMakespan:    body.MaxMakespan,
	}
	err = cons.Check(model, res.Best.Mapping)
	sp.end()
	if err != nil {
		return e, "", false
	}
	sp = root.child("cost.evaluate")
	e = ledgerEntry{Algorithm: res.Best.Name, Mapping: res.Best.Mapping, Metrics: metricsOf(model, res.Best.Mapping)}
	sp.end()

	ts.snapMu.RLock()
	ts.ledgerMu.Lock()
	ts.nextID++
	e.ID = fmt.Sprintf("dep-%d", ts.nextID)
	sp = root.child("store.append")
	_, err = ts.st.Append("deployment.created", e)
	sp.end()
	if err == nil {
		ts.entries = append(ts.entries, e)
	}
	ts.ledgerMu.Unlock()
	ts.snapMu.RUnlock()
	if err != nil {
		return e, "", false
	}
	p.maybeSnapshot(root, ts)

	sp = root.child("encode")
	_, err = json.Marshal(map[string]any{"id": e.ID, "algorithm": e.Algorithm, "mapping": e.Mapping,
		"metrics": e.Metrics, "cached": res.Best.FromCache, "truncated": res.Truncated})
	sp.end()
	if err != nil {
		return e, "", false
	}
	return e, "", true
}

// notePlans records per-planner times and whether sampling alone held
// the best Combined cost of a portfolio run.
func (p *inproc) notePlans(res *engine.Result) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rest := 0.0
	for _, pl := range res.Plans {
		if pl.FromCache || pl.Mapping == nil {
			continue
		}
		p.planMs[pl.Key] = append(p.planMs[pl.Key], ms(pl.Elapsed))
		switch pl.Key {
		case "sampling", "anneal", "localsearch":
		default:
			rest += ms(pl.Elapsed)
		}
	}
	if len(res.Plans) < 2 {
		return
	}
	p.portfolioRun++
	p.restMs = append(p.restMs, rest)
	var sampling *engine.Plan
	for i := range res.Plans {
		if res.Plans[i].Key == "sampling" && res.Plans[i].Mapping != nil {
			sampling = &res.Plans[i]
		}
	}
	if sampling == nil {
		return
	}
	for _, pl := range res.Plans {
		if pl.Key != "sampling" && pl.Mapping != nil && pl.Combined <= sampling.Combined {
			return
		}
	}
	p.strictWins++
}

// maybeSnapshot folds the tenant's state into a composite snapshot once
// the WAL outgrows the replay bound, as the daemon does after a mutation.
func (p *inproc) maybeSnapshot(parent *active, ts *tstate) {
	ts.snapIOMu.Lock()
	defer ts.snapIOMu.Unlock()
	if ts.st.LastSeq()-ts.st.SnapshotSeq() < httpapi.DefaultSnapshotEvery {
		return
	}
	sp := parent.child("store.snapshot")
	defer sp.end()
	// The daemon's composite image; its autopilot field stays empty, as
	// no workload runs the autopilot.
	var image struct {
		Fleet       json.RawMessage       `json:"fleet,omitempty"`
		Deployments []ledgerEntry         `json:"deployments,omitempty"`
		NextDepID   int                   `json:"nextDepId,omitempty"`
		Specs       []reconcile.Versioned `json:"specs,omitempty"`
	}
	var err error
	ts.snapMu.Lock()
	ts.ledgerMu.Lock()
	image.Deployments = append([]ledgerEntry(nil), ts.entries...)
	image.NextDepID = ts.nextID
	ts.ledgerMu.Unlock()
	if ts.spec != nil {
		ts.spec.mu.Lock()
		if ts.spec.exec.Fleet != nil {
			image.Fleet, err = ts.spec.exec.Fleet.Snapshot()
		}
		image.Specs = ts.spec.set.Image()
		ts.spec.mu.Unlock()
	}
	covered := ts.st.LastSeq()
	ts.snapMu.Unlock()
	if err != nil {
		return
	}
	state, err := json.Marshal(image)
	if err != nil {
		return
	}
	if ts.st.Snapshot(state, covered) == nil {
		p.mu.Lock()
		p.snapBytes = append(p.snapBytes, len(state))
		p.mu.Unlock()
	}
}

// tick mirrors one spec tick: POST /v1/specs (compile, journal, apply),
// POST /v1/reconcile (one pass) and the three reads.
func (p *inproc) tick(_ context.Context, o *op, due time.Time) (out outcome) {
	ts := p.states[o.tenant]
	st := ts.spec
	st.tickMu.Lock()
	defer st.tickMu.Unlock()
	out.requests = 1
	root := p.tr.root("spec.tick", due)
	root.record("loadgen.queue", due, time.Now())
	defer func() { out.done = root.end() }()

	sp := root.child("spec.put")
	var req struct {
		Name string         `json:"name"`
		Spec reconcile.Spec `json:"spec"`
	}
	err := json.Unmarshal(o.spec.body, &req)
	if err == nil {
		_, err = req.Spec.Compile()
	}
	if err != nil {
		sp.end()
		return out.fail("decoding a generated spec: " + err.Error())
	}
	ts.snapMu.RLock()
	st.mu.Lock()
	gen := st.set.NextGeneration(req.Name)
	st.cur = sp
	err = journal{ts}.Record(reconcile.RecSpecUpdate, reconcile.SpecRecord{Name: req.Name, Generation: gen, Spec: req.Spec})
	if err == nil {
		st.set.Put(req.Name, req.Spec)
	}
	st.mu.Unlock()
	ts.snapMu.RUnlock()
	sp.end()
	if err != nil {
		return out.fail("")
	}
	out.appends++
	p.maybeSnapshot(root, ts)

	out.requests++
	sp = root.child("reconcile.pass")
	ts.snapMu.RLock()
	st.mu.Lock()
	st.cur = sp
	res := st.rec.RunPass(time.Since(p.t0).Seconds())
	st.mu.Unlock()
	ts.snapMu.RUnlock()
	sp.end()
	p.mu.Lock()
	p.passes++
	p.passActions += len(res.Actions)
	p.mu.Unlock()
	for _, a := range res.Actions {
		if a.Err == "" {
			out.appends++
		}
	}
	if res.Converged {
		out.appends++
	}
	p.maybeSnapshot(root, ts)

	read := func(name string, fn func()) {
		out.requests++
		start := time.Now()
		r := root.child(name)
		fn()
		out.reads = append(out.reads, r.end().Sub(start))
	}
	var v reconcile.Versioned
	read("read.status", func() {
		st.mu.Lock()
		v, _ = st.set.Get(req.Name)
		st.mu.Unlock()
	})
	if v.Observed < gen {
		return out.fail(fmt.Sprintf("pass left %s at observed generation %d < %d", req.Name, v.Observed, gen))
	}
	out.latency = time.Since(due)
	var workflows int
	read("read.fleet", func() {
		st.mu.Lock()
		workflows = st.exec.Fleet.Status().Workflows
		st.mu.Unlock()
	})
	if want := len(req.Spec.Workflows); workflows != want {
		return out.fail(fmt.Sprintf("fleet runs %d workflows, converged spec holds %d", workflows, want))
	}
	read("read.deployments", func() {
		ts.ledgerMu.Lock()
		_ = append([]ledgerEntry(nil), ts.entries...)
		ts.ledgerMu.Unlock()
	})
	out.ok = true
	return out
}

// layerTimes is a span name's mean duration and count.
type layerTimes struct {
	n   int
	sum time.Duration
}

func (l layerTimes) mean() time.Duration {
	if l.n == 0 {
		return 0
	}
	return l.sum / time.Duration(l.n)
}

// byName totals span durations per name.
func byName(spans []span) map[string]layerTimes {
	m := map[string]layerTimes{}
	for _, s := range spans {
		l := m[s.Name]
		l.n++
		l.sum += s.dur()
		m[s.Name] = l
	}
	return m
}

// ingestWait is the mean over deploys of Submit time not covered by
// the engine run that served it.
func ingestWait(spans []span) time.Duration {
	run := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Name == "engine.run" {
			run[s.Parent] = s.dur()
		}
	}
	var sum time.Duration
	n := 0
	for _, s := range spans {
		if s.Name == "ingest.submit" {
			sum += s.dur() - run[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// selfTimes prints, per root span name, each layer's self time — its
// duration minus what its children cover — and checks that the self
// times of every trace add up to its root's duration.
func selfTimes(w io.Writer, spans []span) {
	children := map[uint64]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
		}
	}
	rootName := map[uint64]string{}
	rootTotal := map[string]time.Duration{}
	for _, s := range spans {
		if s.Parent == 0 {
			rootName[s.Trace] = s.Name
			rootTotal[s.Name] += s.dur()
		}
	}
	type row struct {
		n    int
		self time.Duration
	}
	rows := map[string]map[string]*row{}
	accounted := map[string]time.Duration{}
	for _, s := range spans {
		r := rootName[s.Trace]
		if rows[r] == nil {
			rows[r] = map[string]*row{}
		}
		if rows[r][s.Name] == nil {
			rows[r][s.Name] = &row{}
		}
		self := s.dur() - children[s.ID]
		rows[r][s.Name].n++
		rows[r][s.Name].self += self
		accounted[r] += self
	}
	roots := make([]string, 0, len(rows))
	for r := range rows {
		roots = append(roots, r)
	}
	sort.Strings(roots)
	for _, r := range roots {
		total := rootTotal[r]
		fmt.Fprintf(w, "self time under %s (%d traces, %.1f ms total; self times sum to %.4f of it):\n",
			r, rows[r][r].n, ms(total), float64(accounted[r])/float64(max(total, 1)))
		names := make([]string, 0, len(rows[r]))
		for n := range rows[r] {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return rows[r][names[i]].self > rows[r][names[j]].self })
		for _, n := range names {
			x := rows[r][n]
			fmt.Fprintf(w, "  %-18s %7d spans  self %10.3f ms  %6.2f%%  mean %9.1f us\n",
				n, x.n, ms(x.self), 100*float64(x.self)/float64(max(total, 1)),
				float64(x.self)/float64(x.n)/float64(time.Microsecond))
		}
	}
}

// writeSpans writes the spans as JSONL.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeRecovery times store recovery of every tenant namespace under a
// data directory, as the daemon's boot does it.
func timeRecovery(dir string) (time.Duration, error) {
	start := time.Now()
	mounts, err := store.OpenAll(dir, store.Options{Sync: store.SyncAlways})
	elapsed := time.Since(start)
	var errs []string
	for _, m := range mounts {
		if cerr := m.Store.Close(); cerr != nil {
			errs = append(errs, cerr.Error())
		}
	}
	if err == nil && len(errs) > 0 {
		err = fmt.Errorf("closing recovered stores: %s", strings.Join(errs, "; "))
	}
	return elapsed, err
}
