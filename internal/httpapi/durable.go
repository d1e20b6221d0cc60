package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"wsdeploy/internal/manager"
	"wsdeploy/internal/obs"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
)

// Durable state plumbing. A durable tenant journals every state
// mutation — fleet operations (the manager's typed fleet.* records),
// deployment-ledger appends ("deployment.created") and spec edits
// (reconcile's reconcile.* records) — into its own write-ahead log, and
// periodically folds the whole namespace into a composite snapshot so
// replay stays bounded. After a crash the daemon reopens every tenant's
// store and NewHandlerWith replays each snapshot+tail back into that
// tenant's endpoints; one tenant's log never mixes with another's.

// DefaultSnapshotEvery is the replay bound: a composite snapshot and
// WAL compaction trigger once this many records accumulate past the
// last snapshot.
const DefaultSnapshotEvery = 256

// Record types owned by the HTTP layer (fleet.* belong to manager,
// reconcile.* to reconcile). recLegacyAutopilotRun is no longer written:
// data directories from before the autopilot endpoint was removed may
// still hold it, and recovery skips it.
const (
	recDeploymentCreated  = "deployment.created"
	recLegacyAutopilotRun = "autopilot.run"
)

var obsSnapErrs = obs.Default().Counter("httpapi.snapshot_errors")

// tenantJournal adapts a tenant's store to manager.Journal. The fleet
// mutation that triggers a record runs under the tenant's snapMu.RLock
// (see tenantState.mutate), so appends never interleave with a
// composite snapshot capture.
type tenantJournal struct{ ts *tenantState }

func (j tenantJournal) Record(typ string, data any) error { return j.ts.journalFleet(typ, data) }

// journalFleet appends one fleet record. Every fleet write holds
// fleetState.mu; inside a reconcile pass (fleetState.batch) the record
// joins the pass's commit group, elsewhere it is synced before the
// mutation is acknowledged.
func (ts *tenantState) journalFleet(typ string, data any) error {
	if ts.fleet.batch {
		_, err := ts.store.AppendNoSync(typ, data)
		return err
	}
	_, err := ts.store.Append(typ, data)
	return err
}

// mutate runs one state mutation (including its journal appends) under
// the tenant's snapshot read-lock, then triggers a composite snapshot
// if the WAL has outgrown the replay bound. fn writes the HTTP
// response itself.
func (ts *tenantState) mutate(fn func()) {
	func() {
		// Deferred so a panicking handler (caught by the ServeHTTP
		// backstop) cannot leak the read lock and wedge every future
		// snapshot behind it.
		ts.snapMu.RLock()
		defer ts.snapMu.RUnlock()
		fn()
	}()
	ts.maybeSnapshot()
}

// maybeSnapshot compacts once the log holds snapEvery records past the
// last snapshot. Failures are recorded (metrics + /v1/store/status) but
// do not fail the request that tripped the threshold: the WAL itself
// is intact, only replay stays long.
func (ts *tenantState) maybeSnapshot() {
	if ts.store == nil || ts.store.Failed() != nil {
		// A fail-stopped store rejects snapshots anyway; skipping here
		// keeps degraded reads from churning snapshot errors.
		return
	}
	if ts.store.LastSeq()-ts.store.SnapshotSeq() < ts.h.snapEvery {
		return
	}
	if err := ts.SnapshotNow(); err != nil {
		obsSnapErrs.Inc()
		ts.snapErrMu.Lock()
		ts.snapErr = err.Error()
		ts.snapErrMu.Unlock()
	}
}

// composite is the durable image of one tenant's stateful endpoints,
// stored as the opaque payload of a store snapshot. Snapshots written
// before the autopilot endpoint was removed also carry an "autopilot"
// key; decoding ignores it and the next snapshot drops it.
type composite struct {
	Fleet       json.RawMessage       `json:"fleet,omitempty"`
	Deployments []deployEntry         `json:"deployments,omitempty"`
	NextDepID   int                   `json:"nextDepId,omitempty"`
	Specs       []reconcile.Versioned `json:"specs,omitempty"`
}

// SnapshotNow captures a quiesced composite snapshot of the tenant's
// fleet, deployment ledger and specs and hands it to the
// tenant's store, which compacts the WAL down to the uncovered tail.
// No-op without a store.
func (ts *tenantState) SnapshotNow() error {
	if ts.store == nil {
		return nil
	}
	ts.snapIOMu.Lock()
	defer ts.snapIOMu.Unlock()

	ts.snapMu.Lock()
	var c composite
	var err error
	ts.fleet.mu.Lock()
	if ts.fleet.l != nil {
		c.Fleet, err = ts.fleet.l.Snapshot()
	}
	ts.fleet.mu.Unlock()
	if err != nil {
		ts.snapMu.Unlock()
		return fmt.Errorf("httpapi: snapshotting fleet: %w", err)
	}
	ts.deps.mu.Lock()
	c.Deployments = append([]deployEntry(nil), ts.deps.entries...)
	c.NextDepID = ts.deps.nextID
	ts.deps.mu.Unlock()
	c.Specs = ts.specs.set.Image()
	covered := ts.store.LastSeq()
	ts.snapMu.Unlock()

	state, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("httpapi: encoding composite snapshot: %w", err)
	}
	return ts.store.Snapshot(state, covered)
}

// SnapshotNow snapshots every durable tenant (deterministically, in
// name order). The daemon calls this on graceful shutdown so the next
// boot replays (almost) nothing for any tenant.
func (h *Handler) SnapshotNow() error {
	h.tmu.RLock()
	states := make([]*tenantState, 0, len(h.states))
	for _, ts := range h.states {
		states = append(states, ts)
	}
	h.tmu.RUnlock()
	sort.Slice(states, func(i, j int) bool { return states[i].t.Name() < states[j].t.Name() })
	var errs []error
	for _, ts := range states {
		if err := ts.SnapshotNow(); err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", ts.t.Name(), err))
		}
	}
	return errors.Join(errs...)
}

// restoreFromRecovery replays a store's recovered state — composite
// snapshot first, then the log tail record by record — into the
// tenant's stateful endpoints, and attaches the journal so subsequent
// mutations keep the log current.
func (ts *tenantState) restoreFromRecovery(rec *store.Recovery) error {
	var m *manager.Manager
	if rec.Snapshot != nil {
		var c composite
		if err := json.Unmarshal(rec.Snapshot, &c); err != nil {
			return fmt.Errorf("httpapi: decoding composite snapshot: %w", err)
		}
		if len(c.Fleet) > 0 {
			var err error
			if m, err = manager.Restore(c.Fleet); err != nil {
				return fmt.Errorf("httpapi: restoring fleet snapshot: %w", err)
			}
		}
		ts.deps.entries = c.Deployments
		ts.deps.nextID = c.NextDepID
		ts.specs.set.RestoreImage(c.Specs)
	}
	for _, r := range rec.Records {
		switch {
		case manager.IsFleetRecord(r.Type):
			var err error
			if m, err = manager.ApplyRecord(m, r.Type, r.Data); err != nil {
				return fmt.Errorf("httpapi: replaying seq %d: %w", r.Seq, err)
			}
		case r.Type == recDeploymentCreated:
			var e deployEntry
			if err := json.Unmarshal(r.Data, &e); err != nil {
				return fmt.Errorf("httpapi: replaying seq %d (%s): %w", r.Seq, r.Type, err)
			}
			ts.deps.replay(e)
		case reconcile.IsSpecRecord(r.Type):
			if err := ts.specs.replaySpecRecord(r); err != nil {
				return err
			}
		case r.Type == recLegacyAutopilotRun:
			// A finished study's summary: no state to rebuild.
		default:
			return fmt.Errorf("httpapi: replaying seq %d: unknown record type %q", r.Seq, r.Type)
		}
	}
	if m != nil {
		fleet := manager.Wrap(m)
		fleet.AttachJournal(tenantJournal{ts})
		ts.fleet.l = fleet
	}
	return nil
}

// journalFleetCreate writes the genesis record for a freshly created
// fleet and attaches the journal. No-op without a store.
func (ts *tenantState) journalFleetCreate(fleet *manager.Locked) error {
	if ts.store == nil {
		return nil
	}
	genesis, err := manager.CreateRecord(fleet)
	if err != nil {
		return err
	}
	if err := ts.journalFleet(manager.RecFleetCreate, genesis); err != nil {
		return fmt.Errorf("httpapi: created fleet but %w: %v", manager.ErrJournal, err)
	}
	fleet.AttachJournal(tenantJournal{ts})
	return nil
}

// journalFleetRestore records a snapshot-restore as a single record
// carrying the full snapshot, and attaches the journal. No-op without
// a store.
func (ts *tenantState) journalFleetRestore(fleet *manager.Locked, snapshot []byte) error {
	if ts.store == nil {
		return nil
	}
	if _, err := ts.store.Append(manager.RecFleetRestore, manager.RestoreRecord(snapshot)); err != nil {
		return fmt.Errorf("httpapi: restored fleet but %w: %v", manager.ErrJournal, err)
	}
	fleet.AttachJournal(tenantJournal{ts})
	return nil
}

// storeStatus serves GET /v1/store/status for the request's tenant:
// durability off/on, the store's counters, and the last
// composite-snapshot error if any.
func (ts *tenantState) storeStatus(w http.ResponseWriter, _ *http.Request) {
	if ts.store == nil {
		writeJSON(w, http.StatusOK, map[string]any{"durable": false, "tenant": ts.t.Name()})
		return
	}
	ts.snapErrMu.Lock()
	snapErr := ts.snapErr
	ts.snapErrMu.Unlock()
	out := map[string]any{
		"durable":       true,
		"tenant":        ts.t.Name(),
		"snapshotEvery": ts.h.snapEvery,
		"store":         ts.store.Status(),
	}
	if snapErr != "" {
		out["lastSnapshotError"] = snapErr
	}
	writeJSON(w, http.StatusOK, out)
}
