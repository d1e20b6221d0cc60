package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wsdeploy/internal/store"
	"wsdeploy/internal/tenant"
)

// durableServer opens (or reopens) a store in dir and serves a handler
// wired to it.
func durableServer(t *testing.T, dir string, every uint64) (*httptest.Server, *store.Store) {
	t.Helper()
	st, rec, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHandlerWith(Options{Store: st, Recovery: rec, SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	return srv, st
}

// getBody fetches a URL and returns the raw response body.
func getBody(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// mustOK posts and requires a 200.
func mustOK(t *testing.T, srv *httptest.Server, method, path, body string) map[string]any {
	t.Helper()
	resp, out := do(t, method, srv.URL+path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d: %v", method, path, resp.StatusCode, out)
	}
	return out
}

// driveDurableState exercises the fleet lifecycle and the deployment
// ledger.
func driveDurableState(t *testing.T, srv *httptest.Server) {
	t.Helper()
	wf, n := specPair(t)
	mustOK(t, srv, http.MethodPut, "/v1/fleet", `{"network": `+n+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "wf1", "workflow": `+wf+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/workflows", `{"id": "wf2", "workflow": `+wf+`}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/servers", `{"name": "joined", "powerHz": 2.5e9}`)
	mustOK(t, srv, http.MethodDelete, "/v1/fleet/servers/0", "")
	mustOK(t, srv, http.MethodPost, "/v1/fleet/rebalance", "")

	out := mustOK(t, srv, http.MethodPost, "/v1/deploy",
		`{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)
	if out["id"] != "dep-1" {
		t.Fatalf("first auto ledger id = %v", out["id"])
	}
	out = mustOK(t, srv, http.MethodPost, "/v1/deploy",
		`{"id": "named", "workflow": `+wf+`, "network": `+n+`, "algorithm": "fairload"}`)
	if out["id"] != "named" {
		t.Fatalf("named ledger id = %v", out["id"])
	}
}

// durableViews captures every recoverable GET surface.
func durableViews(t *testing.T, srv *httptest.Server) map[string]string {
	t.Helper()
	return map[string]string{
		"fleet snapshot": getBody(t, srv, "/v1/fleet/snapshot"),
		"fleet status":   getBody(t, srv, "/v1/fleet/status"),
		"deployments":    getBody(t, srv, "/v1/deployments"),
	}
}

// TestDurableRestartRoundTrip kills the daemon (no graceful snapshot)
// and asserts every stateful endpoint serves byte-identical responses
// after recovery replays the raw WAL.
func TestDurableRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, 0)
	driveDurableState(t, srv)
	before := durableViews(t, srv)
	srv.Close()
	// No SnapshotNow: this restart replays the log alone, like kill -9.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := durableServer(t, dir, 0)
	defer srv2.Close()
	defer st2.Close()
	if st2.SnapshotSeq() != 0 {
		t.Fatalf("unexpected snapshot at seq %d; wanted raw-log replay", st2.SnapshotSeq())
	}
	after := durableViews(t, srv2)
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("%s diverged after restart:\n got: %s\nwant: %s", name, after[name], want)
		}
	}

	// The ledger counter survives too: the next auto id continues.
	wf, n := specPair(t)
	out := mustOK(t, srv2, http.MethodPost, "/v1/deploy",
		`{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)
	if out["id"] != "dep-3" {
		t.Fatalf("post-restart auto id = %v, want dep-3", out["id"])
	}
}

// TestDurableSnapshotRoundTrip folds the state into a composite
// snapshot (the graceful-shutdown path), restarts, and expects the
// same responses from snapshot-based recovery.
func TestDurableSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, 0)
	driveDurableState(t, srv)
	before := durableViews(t, srv)

	h := srv.Config.Handler.(*Handler)
	if err := h.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, st2 := durableServer(t, dir, 0)
	defer srv2.Close()
	defer st2.Close()
	if st2.SnapshotSeq() == 0 {
		t.Fatal("composite snapshot not used for recovery")
	}
	after := durableViews(t, srv2)
	for name, want := range before {
		if after[name] != want {
			t.Fatalf("%s diverged after snapshot recovery:\n got: %s\nwant: %s", name, after[name], want)
		}
	}
}

// TestDurableAutoSnapshot drives enough mutations past a tiny
// SnapshotEvery and expects the handler to compact on its own.
func TestDurableAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, 2)
	defer srv.Close()
	defer st.Close()
	driveDurableState(t, srv)
	if st.SnapshotSeq() == 0 {
		t.Fatal("no automatic composite snapshot after crossing SnapshotEvery")
	}
	if status := st.Status(); status.WALRecords >= status.Appended {
		t.Fatalf("compaction never shrank the WAL: %+v", status)
	}
}

// Legacy autopilot data as a daemon that still served POST /v1/autopilot
// wrote it: one "autopilot.run" WAL record, and the same run under the
// composite snapshot's "autopilot" key.
const legacyAutopilotRun = `{"summary": {"enabled": true, "backend": "sim", "arrivals": 321, "tailPenalty": 0.0123},
 "detector": {"armed": [true, false, true], "rearmAt": [0, 47, 0], "cooldownUntil": 52, "lastDrift": 0.21}}`

// TestRecoverSkipsLegacyAutopilotData reopens a data directory written
// before the autopilot endpoint was removed. Its snapshot carries an
// "autopilot" key and its WAL tail an "autopilot.run" record between
// live records. Recovery must skip both and restore everything else,
// and the next snapshot must drop both.
func TestRecoverSkipsLegacyAutopilotData(t *testing.T) {
	dir := t.TempDir()
	srv, st := durableServer(t, dir, 0)
	wf, n := specPair(t)
	mustOK(t, srv, http.MethodPost, "/v1/specs", specBody(t, "app", "wf-a"))
	mustOK(t, srv, http.MethodPost, "/v1/reconcile", `{"passes": 8}`)
	mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`, "algorithm": "holm"}`)

	// The legacy snapshot: this state's composite plus an "autopilot" key.
	ts := srv.Config.Handler.(*Handler).states[tenant.DefaultName]
	fleet, err := ts.fleet.l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.Marshal(struct {
		composite
		Autopilot json.RawMessage `json:"autopilot"`
	}{
		composite{Fleet: fleet, Deployments: ts.deps.entries, NextDepID: ts.deps.nextID, Specs: ts.specs.set.Image()},
		json.RawMessage(legacyAutopilotRun),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(legacy, st.LastSeq()); err != nil {
		t.Fatal(err)
	}
	// The legacy record, followed by live records replay must not stop at.
	if _, err := st.Append(recLegacyAutopilotRun, json.RawMessage(legacyAutopilotRun)); err != nil {
		t.Fatal(err)
	}
	mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"id": "after", "workflow": `+wf+`, "network": `+n+`, "algorithm": "fairload"}`)
	mustOK(t, srv, http.MethodPost, "/v1/fleet/rebalance", "")
	views := func(srv *httptest.Server) map[string]string {
		// "passes" counts reconcile passes since boot; it is not durable.
		status := specStatusOf(t, srv, "app")
		delete(status, "passes")
		spec, err := json.Marshal(status)
		if err != nil {
			t.Fatal(err)
		}
		return map[string]string{
			"fleet snapshot": getBody(t, srv, "/v1/fleet/snapshot"),
			"deployments":    getBody(t, srv, "/v1/deployments"),
			"spec status":    string(spec),
		}
	}
	before := views(srv)
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(rec.Snapshot), `"autopilot"`) || !hasRecord(rec, recLegacyAutopilotRun) {
		t.Fatal("fixture lost its legacy autopilot data before the restart")
	}
	h2, err := NewHandlerWith(Options{Store: st2, Recovery: rec})
	if err != nil {
		t.Fatalf("recovering legacy data: %v", err)
	}
	srv2 := httptest.NewServer(h2)
	for name, want := range before {
		if got := views(srv2)[name]; got != want {
			t.Errorf("%s diverged after restart:\n got: %s\nwant: %s", name, got, want)
		}
	}
	if err := h2.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	st3, rec, err := store.Open(dir, store.Options{Sync: store.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if strings.Contains(string(rec.Snapshot), `"autopilot"`) {
		t.Errorf("snapshot still carries the autopilot key: %s", rec.Snapshot)
	}
	if hasRecord(rec, recLegacyAutopilotRun) {
		t.Error("WAL still holds the autopilot.run record")
	}
}

// hasRecord reports whether a recovered WAL tail holds a record of typ.
func hasRecord(rec *store.Recovery, typ string) bool {
	for _, r := range rec.Records {
		if r.Type == typ {
			return true
		}
	}
	return false
}

// TestStoreStatusEndpoint covers both durability modes.
func TestStoreStatusEndpoint(t *testing.T) {
	plain := httptest.NewServer(NewHandler())
	defer plain.Close()
	if body := getBody(t, plain, "/v1/store/status"); !strings.Contains(body, `"durable": false`) {
		t.Fatalf("in-memory handler claims durability: %s", body)
	}

	srv, st := durableServer(t, t.TempDir(), 0)
	defer srv.Close()
	defer st.Close()
	wf, n := specPair(t)
	mustOK(t, srv, http.MethodPost, "/v1/deploy", `{"workflow": `+wf+`, "network": `+n+`}`)
	var out struct {
		Durable bool `json:"durable"`
		Store   struct {
			LastSeq  uint64 `json:"lastSeq"`
			Appended int64  `json:"appended"`
		} `json:"store"`
	}
	if err := json.Unmarshal([]byte(getBody(t, srv, "/v1/store/status")), &out); err != nil {
		t.Fatal(err)
	}
	if !out.Durable || out.Store.LastSeq == 0 || out.Store.Appended == 0 {
		t.Fatalf("store status after a journaled deploy: %+v", out)
	}
}
