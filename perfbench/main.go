// Command perfbench is the repository's end-to-end benchmark. It starts
// the wsdeployd daemon built from this tree on a fresh data directory with
// -fsync always, drives one seeded workload against it over loopback from
// this single process, checks every answer, and prints the metrics that
// BENCHMARK.json names. With -trace 0 those are the end-to-end metrics of
// an untraced run; with -trace 1 they are the per-layer metrics, from the
// daemon's /metrics counter deltas plus an in-process replay of the same
// requests with spans around each call into the internal packages.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload portfolio-distinct --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command line.
type options struct {
	workload string
	seed     uint64
	window   time.Duration
	trace    bool
	daemon   string
	work     string
	config   string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints: metrics plus the operation tally and the
// correctness verdict.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string // human-readable lines printed above the JSON
	bad   []string // failed correctness checks
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// ratio records a ratio metric and prints it next to both of its counts.
func (r *report) ratio(name string, num, den float64, numName, denName string) {
	v := 0.0
	if den > 0 {
		v = num / den
	}
	r.set(name, v, "ratio")
	r.notef("%-28s %.4f  (%s %.0f / %s %.0f)", name, v, numName, num, denName, den)
}

// gate keeps in the result only the metrics BENCHMARK.json lists for the
// mode. The rest were measured too and stay in the printed table, but
// are not steady enough on a shared host to bound a change by.
func (r *report) gate(names []string) error {
	kept := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := r.Metrics[n]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists metric %q, which this mode does not measure", n)
		}
		kept[n] = m
	}
	r.Metrics = kept
	return nil
}

// setupRepeats is how many fresh daemons a run sets up; setup_s is the
// median. Half are set up before the timed window and half after the
// durability check, so the median covers the whole run, not only the
// host's state in its first second.
const setupRepeats = 61

// runBudget bounds a whole run; the harness allows 180 seconds.
const runBudget = 170 * time.Second

// How long ops queued behind a closed window may still start: long
// enough for any daemon that meets the latency limit, short enough to
// keep a run against one that does not inside runBudget.
const (
	mainDrain = 20 * time.Second
	rungDrain = 5 * time.Second
)

func main() {
	var opt options
	var seconds, trace int
	flag.StringVar(&opt.workload, "workload", "", "workload name from BENCHMARK.json")
	flag.Uint64Var(&opt.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.StringVar(&opt.daemon, "daemon", "", "wsdeployd binary")
	flag.StringVar(&opt.work, "work", "", "scratch directory for daemon data, logs and span files")
	flag.StringVar(&opt.config, "config", "BENCHMARK.json", "benchmark definition")
	flag.Parse()
	opt.window = time.Duration(seconds) * time.Second
	opt.trace = trace == 1
	if opt.workload == "" || opt.daemon == "" || opt.work == "" || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload, -daemon, -work, -seconds > 0 and -trace 0|1")
		os.Exit(2)
	}
	rep, err := run(opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, b := range rep.bad {
		fmt.Println("CHECK FAILED:", b)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// nproc caps the generator: worker goroutines (and so HTTP connections)
// and GOMAXPROCS.
var nproc = runtime.NumCPU()

func run(opt options) (*report, error) {
	runtime.GOMAXPROCS(nproc)
	wl, gated, err := loadWorkload(opt.config, opt.workload, opt.trace)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(opt.daemon); err != nil {
		return nil, err
	}
	in, err := generate(wl, opt.seed, opt.window)
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(opt.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opt.work, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	rep := &report{Metrics: map[string]metric{}}
	rep.notef("workload %s seed %d: %.0f deploys/s (%s), %.0f spec ticks/s, limit %s, window %s, %d generator workers, fsync always",
		wl.name, opt.seed, wl.rate, wl.algo, wl.ticks, wl.limit, opt.window, nproc)
	dr, err := runDaemon(ctx, opt, wl, in, rep)
	if err != nil {
		return nil, err
	}
	if opt.trace {
		err = traceRun(ctx, opt, wl, in, dr, rep)
	} else {
		endToEnd(wl, dr, rep)
	}
	if err != nil {
		return nil, err
	}
	if err := rep.gate(gated); err != nil {
		return nil, err
	}
	rep.Correct = len(rep.bad) == 0
	return rep, nil
}

// daemonRun is what the untraced run against the daemon measured.
type daemonRun struct {
	setups   []time.Duration
	main     phaseStats
	probe    phaseStats // the control-plane probe; empty when main has ticks
	maxOK    float64
	cpuPerOp time.Duration
	rssMB    float64
	before   map[string]float64 // /metrics after set-up
	after    map[string]float64 // /metrics after the timed window
	recover  time.Duration
	data     string // data directory of the measured daemon
}

// setUp starts a fresh daemon on dir and runs the workload's set-up on
// it, returning the session and the time both took.
func setUp(ctx context.Context, opt options, in *inputs, dir, logPath string) (*session, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(ctx, opt.daemon, dir, logPath, nproc)
	if err != nil {
		return nil, 0, err
	}
	s := newSession(in)
	s.d = d
	if err := s.prepare(ctx, in); err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return s, time.Since(start), nil
}

// spareSetUps times n set-ups on throwaway daemons, each killed right
// after. Their data directories are removed only once all n are done, so
// no set-up's fsyncs also commit the deletion of the one before.
func spareSetUps(ctx context.Context, opt options, in *inputs, n int, logPath string) ([]time.Duration, error) {
	dir := filepath.Join(opt.work, "spare")
	var took []time.Duration
	for i := range n {
		s, t, err := setUp(ctx, opt, in, filepath.Join(dir, strconv.Itoa(i)), logPath)
		if err != nil {
			return nil, err
		}
		s.d.kill()
		took = append(took, t)
	}
	return took, os.RemoveAll(dir)
}

// runDaemon sets up the measured daemon, runs the timed window and — for
// end-to-end runs — the control-plane probe, the rate ladder and the
// spare set-ups, then checks the store append count and, after a
// SIGKILL and restart, that every acknowledged deployment survived.
func runDaemon(ctx context.Context, opt options, wl workload, in *inputs, rep *report) (*daemonRun, error) {
	dr := &daemonRun{data: filepath.Join(opt.work, "data")}
	logPath := filepath.Join(opt.work, "wsdeployd.log")
	spares := 0
	if !opt.trace {
		spares = setupRepeats / 2
	}
	var err error
	if dr.setups, err = spareSetUps(ctx, opt, in, spares, logPath); err != nil {
		return nil, err
	}
	s, took, err := setUp(ctx, opt, in, dr.data, logPath)
	if err != nil {
		return nil, err
	}
	dr.setups = append(dr.setups, took)
	defer func() { s.d.kill() }()

	if dr.before, err = s.d.metrics(ctx); err != nil {
		return nil, err
	}
	cpu0, err := s.d.cpu()
	if err != nil {
		return nil, err
	}
	main := runPhase(ctx, in.phases[0], nproc, mainDrain, s.exec)
	cpu1, err := s.d.cpu()
	if err != nil {
		return nil, err
	}
	dr.cpuPerOp = cpuPerOp(cpu1-cpu0, main)
	if dr.rssMB, err = s.d.peakRSS(); err != nil {
		return nil, err
	}
	if dr.after, err = s.d.metrics(ctx); err != nil {
		return nil, err
	}
	dr.main = summarize(main, wl.limit)
	tally(rep, dr.main)
	appendsWant := dr.main.appends
	if lagLimit := wl.limit / 4; dr.main.lagP99 > lagLimit {
		rep.bad = append(rep.bad, fmt.Sprintf("run invalid: the generator ran %.1f ms late at p99, over %.1f ms",
			ms(dr.main.lagP99), ms(lagLimit)))
	}
	if opt.trace {
		// The traced run takes only the window's counter deltas from
		// the daemon; the probe and the ladder are end-to-end phases.
		checkAppends(rep, dr.before, dr.after, appendsWant)
		return dr, nil
	}
	if len(in.probe.ops) > 0 {
		dr.probe = summarize(runPhase(ctx, in.probe, nproc, rungDrain, s.exec), wl.limit)
		tally(rep, dr.probe)
		appendsWant += dr.probe.appends
	}

	// The ladder: the timed window is the first rung; each higher rung
	// runs only while the one below met the limit.
	if passes(wl, in.phases[0], dr.main) {
		dr.maxOK = in.phases[0].rate
		for _, ph := range in.phases[1:] {
			st := summarize(runPhase(ctx, ph, nproc, rungDrain, s.exec), wl.limit)
			// A rung above capacity is meant to fail: its refusals and
			// skipped ops probe capacity and are not counted as failed
			// operations. Wrong answers still fail the run.
			rep.bad = append(rep.bad, st.bad...)
			appendsWant += st.appends
			ok := passes(wl, ph, st)
			rep.notef("ladder rung %5.0f deploys/s: p95 %8.2f ms, backlog %d, failed %d, meets the limit: %v",
				ph.rate, ms(quantile(st.deployLat, 0.95)), st.backlog, st.failed, ok)
			if !ok {
				break
			}
			dr.maxOK = ph.rate
		}
	}
	end, err := s.d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	checkAppends(rep, dr.before, end, appendsWant)

	// Durability: SIGKILL, restart on the same directory; every
	// acknowledged deployment must still be listed. The restart is
	// recover_s.
	s.d.kill()
	start := time.Now()
	d, err := startDaemon(ctx, opt.daemon, dr.data, logPath, nproc)
	if err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	dr.recover = time.Since(start)
	s.d = d
	missing, err := s.missingAcked(ctx)
	if err != nil {
		return nil, err
	}
	rep.Attempted += len(missing)
	rep.Failed += len(missing)
	if len(missing) > 0 {
		rep.bad = append(rep.bad, fmt.Sprintf("%d acknowledged deployments lost across SIGKILL, e.g. %s", len(missing), missing[0]))
	}
	acked := 0
	for _, ids := range s.acked {
		acked += len(ids)
	}
	rep.notef("durability: %d acknowledged deployments, %d missing after SIGKILL and restart", acked, len(missing))
	s.d.kill()

	more, err := spareSetUps(ctx, opt, in, setupRepeats-len(dr.setups), logPath)
	if err != nil {
		return nil, err
	}
	dr.setups = append(dr.setups, more...)
	return dr, nil
}

// cpuPerOp is the daemon's CPU time over a phase divided by the requests
// it acknowledged in it.
func cpuPerOp(cpu time.Duration, run phaseRun) time.Duration {
	acked := 0
	for _, out := range run.out {
		acked += out.requests - out.failed
	}
	if acked == 0 {
		return 0
	}
	return cpu / time.Duration(acked)
}

// tally adds a phase's operations to the report.
func tally(rep *report, st phaseStats) {
	rep.Attempted += st.attempted
	rep.Failed += st.failed
	rep.bad = append(rep.bad, st.bad...)
}

// passes reports whether a rung met the latency limit with no failures
// and no growing backlog: at the window's end no more ops may be
// outstanding than the offered rate keeps in flight within the limit.
func passes(wl workload, ph phase, st phaseStats) bool {
	tickRate := wl.ticks * ph.rate / wl.rate
	allowed := 2*nproc + int(math.Ceil((ph.rate+tickRate)*wl.limit.Seconds()))
	return st.deploysOK > 0 && st.failed == 0 && st.backlog <= allowed &&
		quantile(st.deployLat, 0.95) <= wl.limit
}

// checkAppends compares the daemon's store.appends delta with the
// appends the acknowledged mutations imply.
func checkAppends(rep *report, before, after map[string]float64, want int) {
	got := after["store_appends"] - before["store_appends"]
	rep.notef("store appends: daemon counted %.0f, acknowledged mutations imply %d", got, want)
	if int(got) != want {
		rep.bad = append(rep.bad, fmt.Sprintf("store.appends delta %.0f != %d acknowledged mutations", got, want))
	}
}

// endToEnd fills in the end-to-end metrics of an untraced run.
func endToEnd(wl workload, dr *daemonRun, rep *report) {
	m := dr.main
	secs := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = d.Seconds()
		}
		return out
	}
	rep.set("deploy_p50_ms", ms(quantile(m.deployLat, 0.5)), "ms")
	rep.set("deploy_p95_ms", ms(quantile(m.deployLat, 0.95)), "ms")
	rep.set("slo_attain", mean(float64(m.withinLimit), m.deploys), "ratio")
	rep.set("max_ok_rate_rps", dr.maxOK, "1/s")
	rep.set("placement_cost_mean", mean(m.costSum, m.deploysOK), "s")
	rep.set("cpu_ms_per_op", ms(dr.cpuPerOp), "ms")
	rep.set("rss_peak_mb", dr.rssMB, "MiB")
	rep.set("setup_s", median(secs(dr.setups)), "s")
	rep.set("recover_s", dr.recover.Seconds(), "s")
	ctl, where := m, "in the window"
	if len(m.convergeLat) == 0 {
		ctl, where = dr.probe, "in the probe after it"
	}
	rep.set("spec_converge_p50_ms", ms(quantile(ctl.convergeLat, 0.5)), "ms")
	rep.set("spec_converge_p95_ms", ms(quantile(ctl.convergeLat, 0.95)), "ms")
	rep.set("read_p50_ms", ms(quantile(ctl.readLat, 0.5)), "ms")
	rep.set("read_p95_ms", ms(quantile(ctl.readLat, 0.95)), "ms")
	setups := secs(dr.setups)
	sort.Float64s(setups)
	rep.notef("set-up             median %.3f ms of %d fresh daemons (min %.3f, max %.3f)",
		1000*median(setups), len(setups), 1000*setups[0], 1000*setups[len(setups)-1])
	rep.notef("deploy latency     %s", percentiles(m.deployLat))
	rep.notef("converge latency   %s", percentiles(ctl.convergeLat))
	rep.notef("read latency       %s", percentiles(ctl.readLat))
	rep.notef("samples: %d deploys (%d ok, %d within %s); %d converged ticks and %d reads %s",
		m.deploys, m.deploysOK, m.withinLimit, wl.limit, len(ctl.convergeLat), len(ctl.readLat), where)
	rep.notef("error_rate %.6f (failed %d / attempted %d)", mean(float64(rep.Failed), rep.Attempted), rep.Failed, rep.Attempted)
	rep.notef("loadgen.lag_p99_ms %.3f, backlog at window end %d", ms(m.lagP99), m.backlog)
	printMetrics(rep)
}

// traceRun replays the timed window in-process with spans and fills in
// the per-layer metrics, next to the daemon's counter deltas.
func traceRun(ctx context.Context, opt options, wl workload, in *inputs, dr *daemonRun, rep *report) error {
	delta := func(name string) float64 { return dr.after[name] - dr.before[name] }
	recovery, err := timeRecovery(dr.data)
	if err != nil {
		return err
	}

	// The same window replayed in-process twice, untraced and then
	// traced; the difference of their deploy_p50_ms is what the spans
	// cost.
	bare, err := newInproc(filepath.Join(opt.work, "inproc-untraced"), in, false)
	if err != nil {
		return err
	}
	defer bare.close()
	if err := bare.prepare(in); err != nil {
		return err
	}
	stBare := summarize(runPhase(ctx, in.phases[0], nproc, mainDrain, bare.exec), wl.limit)
	tally(rep, stBare)

	p, err := newInproc(filepath.Join(opt.work, "inproc"), in, true)
	if err != nil {
		return err
	}
	defer p.close()
	if err := p.prepare(in); err != nil {
		return err
	}
	written0 := p.fs.written.Load()
	run := runPhase(ctx, in.phases[0], nproc, mainDrain, p.exec)
	written := p.fs.written.Load() - written0
	st := summarize(run, wl.limit)
	tally(rep, st)
	// Layer times come from the window's spans; a probe after it only
	// adds the reconcile and manager layers the window did not exercise.
	layers := byName(p.tr.copySpans())
	p.mu.Lock()
	windowSnaps := append([]int(nil), p.snapBytes...)
	p.mu.Unlock()
	if len(in.probe.ops) > 0 {
		tally(rep, summarize(runPhase(ctx, in.probe, nproc, rungDrain, p.exec), wl.limit))
	}
	spans := p.tr.copySpans()
	for name, l := range byName(spans) {
		if strings.HasPrefix(name, "reconcile.") || strings.HasPrefix(name, "manager.") {
			layers[name] = l
		}
	}
	us := func(name string) float64 { return float64(layers[name].mean()) / float64(time.Microsecond) }
	msOf := func(name string) float64 { return ms(layers[name].mean()) }
	planMean := func(key string) float64 {
		var sum float64
		for _, v := range p.planMs[key] {
			sum += v
		}
		return mean(sum, len(p.planMs[key]))
	}
	var restSum float64
	for _, v := range p.restMs {
		restSum += v
	}
	var snapSum float64
	for _, b := range windowSnaps {
		snapSum += float64(b)
	}

	rep.set("wfio.decode_us", us("wfio.decode"), "us")
	rep.set("httpapi.request_ms", 1000*mean(delta("httpapi_request_seconds_sum"), int(delta("httpapi_request_seconds_count"))), "ms")
	rep.set("tenant.admit_us", us("tenant.admit"), "us")
	rep.set("tenant.rejected", delta("tenant_rejected_quota")+delta("tenant_rejected_capacity"), "count")
	rep.set("ingest.wait_ms", ms(ingestWait(spans)), "ms")
	rep.set("ingest.batch_size_mean", mean(delta("ingest_batch_size_sum"), int(delta("ingest_batch_size_count"))), "count")
	rep.notef("%-28s %.4f  (requests %.0f / batches %.0f)", "ingest.batch_size_mean",
		rep.Metrics["ingest.batch_size_mean"].Value, delta("ingest_batch_size_sum"), delta("ingest_batch_size_count"))
	rep.ratio("ingest.coalesce_ratio", delta("ingest_coalesced"), delta("ingest_submitted"), "coalesced", "submitted")
	rep.set("ingest.shed", delta("ingest_shed_backlog"), "count")
	rep.set("engine.run_ms", msOf("engine.run"), "ms")
	rep.ratio("engine.cache_hit_ratio", delta("engine_cache_hits"), delta("engine_cache_hits")+delta("engine_cache_misses"), "hits", "lookups")
	rep.set("core.sampling.plan_ms", planMean("sampling"), "ms")
	rep.set("core.anneal.plan_ms", planMean("anneal"), "ms")
	rep.set("core.localsearch.plan_ms", planMean("localsearch"), "ms")
	rep.set("core.rest.plan_ms", mean(restSum, len(p.restMs)), "ms")
	rep.set("core.holm.plan_us", 1000*planMean("holm"), "us")
	rep.set("core.sampling.strict_wins", float64(p.strictWins), "count")
	rep.notef("core.sampling.strict_wins %d of %d portfolio runs", p.strictWins, p.portfolioRun)
	rep.set("cost.model_build_us", us("cost.model_build"), "us")
	rep.set("cost.combined_ns", float64(layers["cost.combined"].mean()), "ns")
	rep.set("store.append_ms", msOf("store.append"), "ms")
	rep.set("store.fsync_ms", 1000*mean(delta("store_fsync_seconds_sum"), int(delta("store_fsync_seconds_count"))), "ms")
	rep.ratio("store.appends_per_fsync", delta("store_appends"), delta("store_fsync_seconds_count"), "appends", "fsyncs")
	rep.set("store.snapshot_ms", msOf("store.snapshot"), "ms")
	rep.set("store.snapshot_bytes", mean(snapSum, len(windowSnaps)), "B")
	rep.set("store.snapshots", delta("store_snapshots"), "count")
	rep.set("store.bytes_per_op", mean(float64(written), st.appends), "B")
	rep.notef("%-28s %.1f  (bytes written %d / store appends %d)", "store.bytes_per_op", rep.Metrics["store.bytes_per_op"].Value, written, st.appends)
	rep.set("store.recover_ms", ms(recovery), "ms")
	rep.set("reconcile.pass_ms", msOf("reconcile.pass"), "ms")
	rep.set("reconcile.actions_per_pass", mean(float64(p.passActions), p.passes), "count")
	rep.set("manager.deploy_us", us("manager.deploy"), "us")
	rep.set("loadgen.lag_p99_ms", ms(dr.main.lagP99), "ms")

	traced, untraced := ms(quantile(st.deployLat, 0.5)), ms(quantile(stBare.deployLat, 0.5))
	rep.notef("tracing overhead: in-process deploy_p50_ms traced %.3f - untraced %.3f = %.3f ms",
		traced, untraced, traced-untraced)
	var b strings.Builder
	selfTimes(&b, spans)
	rep.notes = append(rep.notes, strings.Split(strings.TrimRight(b.String(), "\n"), "\n")...)
	spanFile := filepath.Join(filepath.Dir(opt.work), fmt.Sprintf("spans-%s-%d.jsonl", wl.name, opt.seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return err
	}
	rep.notef("%d spans written to %s", len(spans), spanFile)
	printMetrics(rep)
	return nil
}

// printMetrics adds one "name value unit" line per metric to the notes.
func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rep.notef("%-28s %14.6f %s", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
}

// percentiles renders a latency distribution's percentiles in milliseconds.
func percentiles(xs []time.Duration) string {
	var b strings.Builder
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		fmt.Fprintf(&b, "p%g %.3f  ", 100*q, ms(quantile(xs, q)))
	}
	fmt.Fprintf(&b, "(%d samples, ms)", len(xs))
	return b.String()
}
