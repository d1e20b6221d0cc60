package httpapi

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"wsdeploy/internal/faultfs"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// fsyncs reads the process-wide WAL fsync count.
func fsyncs() int64 { return obs.Default().Histogram("store.fsync_seconds").Count() }

// workflowIDs names n spec workflows.
func workflowIDs(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("wf-%02d", i)
	}
	return ids
}

// TestReconcilePassOneFsync: a pass is one commit group. Converging a
// fresh 3-workflow spec journals the fleet genesis, three deploys and
// the observed-generation advance, and only the last of them fsyncs.
func TestReconcilePassOneFsync(t *testing.T) {
	dir := t.TempDir()
	srv, _, _, st := faultedServer(t, dir)
	before := fsyncs()
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", workflowIDs(3)...))
	if got := fsyncs() - before; got != 1 {
		t.Fatalf("spec put took %d fsyncs, want 1", got)
	}
	seq := st.LastSeq()

	before = fsyncs()
	out := mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{}`)
	if out["converged"] != true {
		t.Fatalf("first pass did not converge: %v", out)
	}
	if got := fsyncs() - before; got != 1 {
		t.Fatalf("converging pass took %d fsyncs, want 1", got)
	}
	if got := st.LastSeq() - seq; got != 5 {
		t.Fatalf("converging pass journaled %d records, want 5 (genesis, 3 deploys, observed)", got)
	}

	// A pass with nothing to do writes nothing and syncs nothing.
	before = fsyncs()
	mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{}`)
	if got := fsyncs() - before; got != 0 {
		t.Fatalf("idle pass took %d fsyncs, want 0", got)
	}
}

// passState is everything a client can observe of a spec-managed
// tenant: the fleet image and every spec's convergence row.
func passState(t *testing.T, srv *httptest.Server) string {
	t.Helper()
	return getBody(t, srv, "/v1/fleet/snapshot") + "\n" + getBody(t, srv, "/v1/specs")
}

// TestReconcileCommitFsyncFault arms a sync-error at a pass's commit
// fsync — the observed-generation append of a converging pass, or the
// explicit Sync ending a pass that runs out of action budget. The
// reconcile call must answer 503 and leave the tenant degraded; after
// the recovery probe the next pass converges, and the tenant's state,
// live and after a cold restart, is byte-identical to a clean run's.
func TestReconcileCommitFsyncFault(t *testing.T) {
	for _, tc := range []struct {
		name      string
		workflows int
	}{
		{"advancing pass", 3},
		{"budget-bound pass", 18}, // create-fleet + 18 deploys > 16 actions
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := specBody(t, "app", workflowIDs(tc.workflows)...)
			converge := func(srv *httptest.Server) {
				out := mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 8}`)
				if out["converged"] != true {
					t.Fatalf("reconcile did not converge: %v", out)
				}
			}
			restarted := func(dir string, srv *httptest.Server, st *store.Store) string {
				srv.Close()
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				srv2, _, _, _ := faultedServer(t, dir)
				return passState(t, srv2)
			}

			cleanDir := t.TempDir()
			clean, _, _, cleanStore := faultedServer(t, cleanDir)
			mustOK(t, clean, http.MethodPost, "/v1/specs", body)
			before := fsyncs()
			mustOK(t, clean, http.MethodPost, "/v1/reconcile", `{"passes": 1}`)
			if got := fsyncs() - before; got != 1 {
				t.Fatalf("first pass took %d fsyncs, want 1", got)
			}
			converge(clean)
			want := passState(t, clean)
			wantRestart := restarted(cleanDir, clean, cleanStore)

			dir := t.TempDir()
			srv, h, in, st := faultedServer(t, dir)
			mustOK(t, srv, http.MethodPost, "/v1/specs", body)
			in.Arm(faultfs.Fault{Kind: faultfs.SyncErr, At: -1})
			resp, out := do(t, http.MethodPost, srv.URL+"/v1/reconcile", `{"passes": 1}`)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("reconcile with a failed commit fsync = %d (%v), want 503", resp.StatusCode, out)
			}
			if got := h.DegradedTenants(); len(got) != 1 || got[0] != tenant.DefaultName {
				t.Fatalf("DegradedTenants after the failed commit = %v", got)
			}
			if st.Status().QuarantinedBytes != 0 || st.LastSeq() != 1 {
				t.Fatalf("the failed pass acknowledged records: %+v", st.Status())
			}
			in.Clear()
			if rec, deg := h.ProbeDegraded(); len(rec) != 1 || len(deg) != 0 {
				t.Fatalf("probe after heal: recovered=%v degraded=%v", rec, deg)
			}
			if st.Status().QuarantinedBytes == 0 {
				t.Fatal("Reopen quarantined nothing: the pass's records were not in the tail")
			}
			converge(srv)
			if got := passState(t, srv); got != want {
				t.Fatalf("state after recovery diverges from a clean run\n got: %s\nwant: %s", got, want)
			}
			if got := restarted(dir, srv, st); got != wantRestart {
				t.Fatalf("restarted state diverges from a clean run\n got: %s\nwant: %s", got, wantRestart)
			}
		})
	}
}

// TestSpecsShareTenant: two specs on one tenant own disjoint workflow
// sets. They converge together, the next pass has nothing to do, and a
// revision that claims another spec's workflow is refused.
func TestSpecsShareTenant(t *testing.T) {
	srv := httptest.NewServer(NewHandler())
	defer srv.Close()
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "web", "wf-a", "wf-b"))
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "batch", "wf-c"))
	if out := mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 8}`); out["converged"] != true {
		t.Fatalf("two specs on one tenant did not converge: %v", out)
	}
	out := mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{}`)
	if acts, _ := out["actions"].([]any); len(acts) != 0 {
		t.Fatalf("pass after convergence acted: %v", acts)
	}
	if st := getBody(t, srv, "/v1/fleet/status"); !strings.Contains(st, `"workflows": 3`) {
		t.Fatalf("fleet after convergence: %s", st)
	}

	resp, body := do(t, http.MethodPost, srv.URL+"/v1/specs", specBody(t, "batch", "wf-c", "wf-a"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("revision claiming another spec's workflow = %d (%v), want 400", resp.StatusCode, body)
	}
	if st := specStatusOf(t, srv, "batch"); st["generation"] != float64(1) {
		t.Fatalf("refused revision changed the spec: %v", st)
	}
}

// TestPassCommitGroupsUnderConcurrentAppends: reconcile passes write
// their fleet records as commit groups while deploy-ledger appends and
// fleet reads hit the same tenant. A ledger append's fsync may commit a
// pass's records early; either way every acknowledged mutation must
// replay byte-identically after a cold restart.
func TestPassCommitGroupsUnderConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	srv, _, _, st := faultedServer(t, dir)
	wf, nf := specPair(t)
	post := func(path, body string) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("POST %s = %d", path, resp.StatusCode)
		}
	}
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			post("/v1/specs", specBody(t, "app", workflowIDs(1+i%4)...))
			post("/v1/reconcile", `{"passes": 4}`)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 16; i++ {
			post("/v1/deploy", fmt.Sprintf(`{"id": "plan-%d", "workflow": %s, "network": %s}`, i, wf, nf))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 32; i++ {
			if resp, err := http.Get(srv.URL + "/v1/fleet/status"); err == nil {
				resp.Body.Close()
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 4}`)
	state := func(srv *httptest.Server) string {
		return passState(t, srv) + "\n" + getBody(t, srv, "/v1/deployments")
	}
	live := state(srv)
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, _, _, _ := faultedServer(t, dir)
	if got := state(srv2); got != live {
		t.Fatalf("state after restart diverges from the live state\n got: %s\nwant: %s", got, live)
	}
}
