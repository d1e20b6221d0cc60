package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one op did, as the load generator saw it.
type outcome struct {
	// latency is, for a deploy, response time measured from the op's due
	// time; for a spec tick, the time from its due time until the spec
	// status read back converged at the posted generation.
	latency time.Duration
	reads   []time.Duration // spec tick reads, each timed on its own
	// requests counts the calls the op attempted; failed counts those
	// that got a non-2xx answer, a transport error or a failed check.
	requests, failed int
	// bad holds failed correctness checks: wrong answers, not refusals.
	bad []string
	ok  bool
	// appends is how many store appends the op's acknowledged mutations
	// imply: one per deploy, spec revision, reconcile action and
	// observed-generation advance.
	appends int
	cost    float64 // deploy: the benchmark's own Combined of the mapping
	done    time.Time
}

func (o *outcome) fail(bad string) outcome {
	o.failed++
	if bad != "" {
		o.bad = append(o.bad, bad)
	}
	o.done = time.Now()
	return *o
}

// execFunc runs one op whose scheduled send time was due.
type execFunc func(ctx context.Context, o *op, due time.Time) outcome

// phaseRun is one executed phase.
type phaseRun struct {
	ph  phase
	out []outcome
	// lag is how late the generator itself handed each op to a worker.
	lag []time.Duration
	// backlog is how many ops were due but unfinished when the window
	// closed.
	backlog int
}

// runPhase sends ph.ops open-loop: a scheduler hands each op to a fixed
// pool of workers at its due time, whether or not earlier ops have
// finished, so a stall shows up as latency on the ops behind it. The
// worker count caps the concurrent calls — and so the HTTP connections.
// Ops still queued drain after the window closes; any not started within
// drain are skipped and count as failed, which bounds a run against a
// daemon that cannot keep up. Skipped ops send nothing, so they imply no
// store appends.
func runPhase(ctx context.Context, ph phase, workers int, drain time.Duration, exec execFunc) phaseRun {
	run := phaseRun{ph: ph, out: make([]outcome, len(ph.ops)), lag: make([]time.Duration, len(ph.ops))}
	queue := make(chan int, len(ph.ops)) // sized to the number of sends: the scheduler never blocks
	var done atomic.Int64
	var skip atomic.Bool
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &ph.ops[i]
				if skip.Load() {
					run.out[i] = outcome{requests: 1, failed: 1}
				} else {
					run.out[i] = exec(ctx, o, start.Add(o.due))
				}
				done.Add(1)
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	sleepUntil := func(t time.Time) bool {
		if d := time.Until(t); d > 0 {
			timer.Reset(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return false
			}
		}
		return true
	}
	sent := 0
	for i := range ph.ops {
		due := start.Add(ph.ops[i].due)
		if !sleepUntil(due) {
			break
		}
		run.lag[i] = time.Since(due)
		queue <- i
		sent++
	}
	sleepUntil(start.Add(ph.dur))
	run.backlog = sent - int(done.Load())
	close(queue)
	drained := make(chan struct{})
	go func() {
		wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-time.After(drain):
		skip.Store(true)
		<-drained
	}
	run.ph.ops = ph.ops[:sent]
	run.out = run.out[:sent]
	run.lag = run.lag[:sent]
	return run
}

// phaseStats summarises one phase.
type phaseStats struct {
	deploys, deploysOK, withinLimit int
	deployLat, convergeLat, readLat []time.Duration
	costSum                         float64
	attempted, failed, appends      int
	bad                             []string
	lagP99                          time.Duration
	backlog                         int
}

func summarize(run phaseRun, limit time.Duration) phaseStats {
	var s phaseStats
	for i, out := range run.out {
		s.attempted += out.requests
		s.failed += out.failed
		s.appends += out.appends
		s.bad = append(s.bad, out.bad...)
		s.readLat = append(s.readLat, out.reads...)
		switch run.ph.ops[i].kind {
		case opDeploy:
			s.deploys++
			if out.ok {
				s.deploysOK++
				s.deployLat = append(s.deployLat, out.latency)
				s.costSum += out.cost
				if out.latency <= limit {
					s.withinLimit++
				}
			}
		case opTick:
			if out.ok {
				s.convergeLat = append(s.convergeLat, out.latency)
			}
		}
	}
	s.lagP99 = quantile(run.lag, 0.99)
	s.backlog = run.backlog
	return s
}

// quantile is the nearest-rank q-quantile; zero for no samples.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
