package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wsdeploy/internal/deploy"
)

// daemon is one wsdeployd process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	hc     *http.Client
	exited chan struct{}
}

// startDaemon spawns wsdeployd on dataDir with fsync-always journaling
// and waits until GET /v1/readyz answers 200.
func startDaemon(ctx context.Context, bin, dataDir, logPath string, conns int) (*daemon, error) {
	var lastErr error
	for range 3 { // a port picked free can be taken before the daemon binds it
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		d, err := spawn(ctx, bin, dataDir, logPath, port, conns)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func spawn(ctx context.Context, bin, dataDir, logPath string, port, conns int) (*daemon, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-data", dataDir, "-fsync", "always")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without reaching kill, the kernel still
	// stops the daemon.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{
		cmd:    cmd,
		base:   "http://" + addr,
		exited: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed daemon carries nothing
		close(d.exited)
	}()
	for {
		st, _ := d.do(ctx, http.MethodGet, "/v1/readyz", "", nil, nil)
		if st == http.StatusOK {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("wsdeployd exited before it was ready (log: %s)", logPath)
		case <-ctx.Done():
			d.kill()
			return nil, ctx.Err()
		case <-time.After(readyPoll):
		}
	}
}

// readyPoll is the pause between readiness probes: well below the
// daemon's few-millisecond start, so set-up times are not rounded up to
// the probe interval.
const readyPoll = 100 * time.Microsecond

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Signal(syscall.SIGKILL) // fails only if it already exited
	<-d.exited
	d.hc.CloseIdleConnections()
}

// do sends one request and decodes a 2xx JSON answer into out.
func (d *daemon) do(ctx context.Context, method, path, tenant string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return 0, err
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("%s %s: decoding answer: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// metrics scrapes the daemon's /metrics into name → value, skipping
// quantile lines.
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	m := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

// cpu returns the daemon's user+system CPU time so far, from /proc.
func (d *daemon) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// session is the load generator's view of one daemon lifetime: the
// daemon it talks to and every deployment id it acknowledged, by tenant.
type session struct {
	d      *daemon
	mu     sync.Mutex
	acked  map[string][]string
	counts map[string]*atomic.Int64 // acknowledged deploys per tenant
	ticks  map[string]*sync.Mutex   // one spec tick at a time per tenant
}

func newSession(in *inputs) *session {
	s := &session{acked: map[string][]string{}, counts: map[string]*atomic.Int64{}, ticks: map[string]*sync.Mutex{}}
	for _, t := range append(append([]string(nil), in.deployTo...), in.specTo...) {
		s.counts[t] = new(atomic.Int64)
		s.ticks[t] = new(sync.Mutex)
	}
	return s
}

// prepare is the workload's set-up on a fresh daemon: create every
// tenant, post generation 1 of each spec and converge it.
func (s *session) prepare(ctx context.Context, in *inputs) error {
	for t := range s.counts {
		body, _ := json.Marshal(map[string]string{"name": t}) // a map of strings always encodes
		if _, err := s.d.do(ctx, http.MethodPost, "/v1/tenants", "", body, nil); err != nil {
			return err
		}
	}
	for k, sg := range in.initial {
		if _, err := s.d.do(ctx, http.MethodPost, "/v1/specs", in.specTo[k], sg.body, nil); err != nil {
			return err
		}
		var rec reconcileAnswer
		if _, err := s.d.do(ctx, http.MethodPost, "/v1/reconcile", in.specTo[k], []byte(`{}`), &rec); err != nil {
			return err
		}
		if !rec.Converged {
			return fmt.Errorf("tenant %s: initial spec did not converge: %v", in.specTo[k], rec.Actions)
		}
	}
	return nil
}

type reconcileAnswer struct {
	Converged bool     `json:"converged"`
	Actions   []string `json:"actions"`
}

// exec runs one op against the daemon.
func (s *session) exec(ctx context.Context, o *op, due time.Time) outcome {
	if o.kind == opDeploy {
		return s.deploy(ctx, o, due)
	}
	return s.tick(ctx, o, due)
}

func (s *session) deploy(ctx context.Context, o *op, due time.Time) outcome {
	out := outcome{requests: 1}
	var resp struct {
		ID      string `json:"id"`
		Mapping []int  `json:"mapping"`
		Metrics struct {
			Combined float64 `json:"combined"`
		} `json:"metrics"`
	}
	if _, err := s.d.do(ctx, http.MethodPost, "/v1/deploy", o.tenant, o.deploy.body, &resp); err != nil {
		return out.fail("")
	}
	out.done = time.Now()
	out.latency = out.done.Sub(due)
	c, bad := checkDeploy(o.deploy, resp.Mapping, resp.Metrics.Combined)
	if bad == "" && resp.ID == "" {
		bad = "acknowledged deploy without an id"
	}
	if bad != "" {
		return out.fail(bad)
	}
	out.ok, out.appends, out.cost = true, 1, c
	s.mu.Lock()
	s.acked[o.tenant] = append(s.acked[o.tenant], resp.ID)
	s.mu.Unlock()
	s.counts[o.tenant].Add(1)
	return out
}

// checkDeploy validates one returned mapping against the request and
// recomputes its paper Combined cost with the benchmark's own model.
func checkDeploy(d *deployReq, mapping []int, combined float64) (float64, string) {
	if len(mapping) != d.wf.M() {
		return 0, fmt.Sprintf("mapping has %d entries for %d operations", len(mapping), d.wf.M())
	}
	for _, s := range mapping {
		if s < 0 || s >= servers {
			return 0, fmt.Sprintf("mapping names server %d of %d", s, servers)
		}
	}
	want := d.model.Combined(deploy.Mapping(mapping))
	if math.Abs(combined-want) > 1e-9*math.Abs(want) {
		return 0, fmt.Sprintf("combined %.17g, recomputed %.17g", combined, want)
	}
	return want, ""
}

// tick posts the op's spec revision, reconciles, and reads the result
// back: spec status (the convergence check), fleet status and the
// deployment ledger.
func (s *session) tick(ctx context.Context, o *op, due time.Time) outcome {
	mu := s.ticks[o.tenant]
	mu.Lock()
	defer mu.Unlock()
	out := outcome{requests: 1}
	var put struct {
		Generation uint64 `json:"generation"`
	}
	if _, err := s.d.do(ctx, http.MethodPost, "/v1/specs", o.tenant, o.spec.body, &put); err != nil {
		return out.fail("")
	}
	out.appends++
	out.requests++
	var rec reconcileAnswer
	if _, err := s.d.do(ctx, http.MethodPost, "/v1/reconcile", o.tenant, []byte(`{}`), &rec); err != nil {
		return out.fail("")
	}
	for _, a := range rec.Actions {
		if !strings.Contains(a, " err=") {
			out.appends++
		}
	}
	if rec.Converged {
		out.appends++ // the observed-generation advance
	}
	read := func(path string, v any) bool {
		out.requests++
		t := time.Now()
		_, err := s.d.do(ctx, http.MethodGet, path, o.tenant, nil, v)
		out.reads = append(out.reads, time.Since(t))
		return err == nil
	}
	var st struct {
		Observed uint64 `json:"observedGeneration"`
	}
	if !read("/v1/specs/app/status", &st) {
		return out.fail("")
	}
	if st.Observed < put.Generation {
		bad := ""
		if rec.Converged {
			bad = fmt.Sprintf("reconcile converged but status observes generation %d < %d", st.Observed, put.Generation)
		}
		return out.fail(bad)
	}
	out.latency = time.Since(due)
	var fleet struct {
		Workflows int `json:"workflows"`
	}
	if !read("/v1/fleet/status", &fleet) {
		return out.fail("")
	}
	if want := len(o.spec.spec.Spec.Workflows); fleet.Workflows != want {
		return out.fail(fmt.Sprintf("fleet runs %d workflows, converged spec holds %d", fleet.Workflows, want))
	}
	before := s.counts[o.tenant].Load()
	var ledger struct {
		Count int64 `json:"count"`
	}
	if !read("/v1/deployments", &ledger) {
		return out.fail("")
	}
	if ledger.Count < before {
		return out.fail(fmt.Sprintf("ledger lists %d deployments, %d were acknowledged before the read", ledger.Count, before))
	}
	out.ok = true
	out.done = time.Now()
	return out
}

// missingAcked lists every acknowledged deployment id the daemon's
// ledger no longer holds.
func (s *session) missingAcked(ctx context.Context) ([]string, error) {
	var missing []string
	for t, ids := range s.acked {
		var ledger struct {
			Deployments []struct {
				ID string `json:"id"`
			} `json:"deployments"`
		}
		if _, err := s.d.do(ctx, http.MethodGet, "/v1/deployments", t, nil, &ledger); err != nil {
			return nil, err
		}
		have := make(map[string]bool, len(ledger.Deployments))
		for _, e := range ledger.Deployments {
			have[e.ID] = true
		}
		for _, id := range ids {
			if !have[id] {
				missing = append(missing, t+"/"+id)
			}
		}
	}
	return missing, nil
}
