package reconcile

import (
	"encoding/json"
	"fmt"
	"testing"

	"wsdeploy/internal/autopilot"
	"wsdeploy/internal/chaos"
	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/store"
	"wsdeploy/internal/workflow"
)

// tinySpec keeps the WAL records small so the per-byte sweep stays
// fast: one two-op line workflow on a two-server bus.
func tinySpec(t *testing.T, id string) Spec {
	t.Helper()
	w, err := workflow.NewLine(id, []float64{2e6, 3e6}, []float64{1e3})
	if err != nil {
		t.Fatal(err)
	}
	n, err := network.NewBus("mini", []float64{1e9, 2e9}, 100e6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	return specFrom(t, n, autopilot.ClassSpec{ID: id, Workflow: w})
}

// TestSpecJournalCrashSweepPerTenant is the kill -9 proof of generation
// monotonicity: a scripted spec-revision history — journal-before-
// acknowledge, exactly as the API layer writes it — is killed at every
// byte offset of every record, per tenant namespace, and the recovered
// set must (a) byte-match the reference reduction of the committed
// prefix and (b) never hold an observedGeneration above the recovered
// desired generation. The WAL's append order makes (b) structural: the
// observed record for generation g is only ever written after g's spec
// record, so no truncation point can invert them.
func TestSpecJournalCrashSweepPerTenant(t *testing.T) {
	for _, tenant := range []string{"alice", "bob"} {
		tenant := tenant
		t.Run(tenant, func(t *testing.T) {
			t.Parallel()
			sp := tinySpec(t, tenant+"-wf")
			upd := sp
			upd.MinServers = 2

			set := NewSet()
			var st *store.Store
			journalPut := func(name string, s Spec) error {
				gen := set.NextGeneration(name)
				if _, err := st.Append(RecSpecUpdate, SpecRecord{Name: name, Generation: gen, Spec: s}); err != nil {
					return err
				}
				set.Put(name, s)
				return nil
			}
			journalAdvance := func(name string, gen uint64) error {
				if _, err := st.Append(RecObserved, ObservedRecord{Name: name, Generation: gen}); err != nil {
					return err
				}
				if !set.Advance(name, gen) {
					return fmt.Errorf("advance of %s to %d refused", name, gen)
				}
				return nil
			}
			journalDelete := func(name string) error {
				if _, err := st.Append(RecSpecDelete, DeleteRecord{Name: name}); err != nil {
					return err
				}
				set.Delete(name)
				return nil
			}

			tgt := chaos.SweepTarget{
				Init:      func(s *store.Store) error { st = s; return nil },
				Reference: func() ([]byte, error) { return json.Marshal(set.Image()) },
				Recover: func(rec *store.Recovery) ([]byte, error) {
					rs := NewSet()
					if rec.Snapshot != nil {
						var img []Versioned
						if err := json.Unmarshal(rec.Snapshot, &img); err != nil {
							return nil, err
						}
						rs.RestoreImage(img)
					}
					for _, r := range rec.Records {
						if !IsSpecRecord(r.Type) {
							return nil, fmt.Errorf("seq %d: unexpected record type %q", r.Seq, r.Type)
						}
						switch r.Type {
						case RecSpecUpdate:
							var sr SpecRecord
							if err := json.Unmarshal(r.Data, &sr); err != nil {
								return nil, err
							}
							if err := rs.ReplaySpec(sr); err != nil {
								return nil, err
							}
						case RecObserved:
							var or ObservedRecord
							if err := json.Unmarshal(r.Data, &or); err != nil {
								return nil, err
							}
							if err := rs.ReplayObserved(or); err != nil {
								return nil, err
							}
						case RecSpecDelete:
							var dr DeleteRecord
							if err := json.Unmarshal(r.Data, &dr); err != nil {
								return nil, err
							}
							rs.ReplayDelete(dr)
						}
					}
					// The invariant under test: no truncation point may leave
					// status claiming a generation the log does not hold.
					for _, v := range rs.List() {
						if v.Observed > v.Generation {
							return nil, fmt.Errorf("spec %q recovered observedGeneration %d > generation %d",
								v.Name, v.Observed, v.Generation)
						}
					}
					return json.Marshal(rs.Image())
				},
				Snapshot: func(s *store.Store) error {
					img, err := json.Marshal(set.Image())
					if err != nil {
						return err
					}
					return s.Snapshot(img, s.LastSeq())
				},
				Empty: []byte("[]"),
			}

			app := tenant + "-app"
			svc := tenant + "-svc"
			steps := []chaos.SweepStep{
				{Name: "spec gen 1", Apply: func() error { return journalPut(app, sp) }},
				{Name: "observed gen 1", Apply: func() error { return journalAdvance(app, 1) }},
				{Name: "spec gen 2", Apply: func() error { return journalPut(app, upd) }},
				{Name: "second spec", Apply: func() error { return journalPut(svc, sp) }},
				{Name: "observed gen 2", Apply: func() error { return journalAdvance(app, 2) }},
				{Name: "compact", Compact: true},
				{Name: "observed svc", Apply: func() error { return journalAdvance(svc, 1) }},
				{Name: "delete svc", Apply: func() error { return journalDelete(svc) }},
				{Name: "spec gen 3", Apply: func() error { return journalPut(app, sp) }},
			}

			rep, err := chaos.RecordSweep(t.TempDir(), steps, tgt)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Torn == 0 || rep.Clean == 0 {
				t.Fatalf("sweep exercised no torn or no clean offsets: %+v", rep)
			}
			t.Logf("tenant %s: %d offsets swept (%d torn, %d clean) across %d steps",
				tenant, rep.Offsets, rep.Torn, rep.Clean, rep.Steps)

			sweepFirstConverge(t, tenant)
		})
	}
}

// noSyncJournal journals fleet records the way a reconcile pass does:
// written into the pass's commit group, synced by the observed append.
type noSyncJournal struct{ st **store.Store }

func (j noSyncJournal) Record(typ string, data any) error {
	_, err := (*j.st).AppendNoSync(typ, data)
	return err
}

// sweepFirstConverge kills at every byte offset of a first-converge
// pass's WAL tail: the spec revision, then the pass's commit group —
// fleet genesis and three deploys written without a sync, closed by
// the synced observed-generation record. No recovery may report a
// converged spec whose deploy records are missing.
func sweepFirstConverge(t *testing.T, tenant string) {
	n, err := network.NewBus("mini", []float64{1e9, 2e9}, 100e6, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	var classes []autopilot.ClassSpec
	for i := 0; i < 3; i++ {
		id := fmt.Sprintf("%s-web-%d", tenant, i)
		w, err := workflow.NewLine(id, []float64{2e6, float64(i+1) * 1e6}, []float64{1e3})
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, autopilot.ClassSpec{ID: id, Workflow: w})
	}
	sp := specFrom(t, n, classes...)
	c, err := sp.Compile()
	if err != nil {
		t.Fatal(err)
	}

	set := NewSet()
	var st *store.Store
	var fleet *manager.Locked
	type image struct {
		Specs []Versioned     `json:"specs"`
		Fleet json.RawMessage `json:"fleet"`
	}
	reduce := func(specs []Versioned, m *manager.Locked) ([]byte, error) {
		img := image{Specs: specs, Fleet: json.RawMessage("null")}
		if m != nil {
			snap, err := m.Snapshot()
			if err != nil {
				return nil, err
			}
			img.Fleet = snap
		}
		return json.Marshal(img)
	}

	const web = "web"
	steps := []chaos.SweepStep{{Name: "web spec gen 1", Apply: func() error {
		if _, err := st.Append(RecSpecUpdate, SpecRecord{Name: web, Generation: 1, Spec: sp}); err != nil {
			return err
		}
		set.PutCompiled(web, sp, c)
		return nil
	}}, {Name: "pass: fleet genesis", Apply: func() error {
		fleet = manager.NewLocked(c.Network)
		genesis, err := manager.CreateRecord(fleet)
		if err != nil {
			return err
		}
		if _, err := st.AppendNoSync(manager.RecFleetCreate, genesis); err != nil {
			return err
		}
		fleet.AttachJournal(noSyncJournal{&st})
		return nil
	}}}
	for _, id := range c.Order {
		id := id
		steps = append(steps, chaos.SweepStep{Name: "pass: deploy " + id, Apply: func() error {
			return fleet.Deploy(id, c.Workflows[id])
		}})
	}
	steps = append(steps, chaos.SweepStep{Name: "pass: observed gen 1 (commit)", Apply: func() error {
		if _, err := st.Append(RecObserved, ObservedRecord{Name: web, Generation: 1}); err != nil {
			return err
		}
		set.Advance(web, 1)
		return nil
	}})

	empty, err := reduce([]Versioned{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tgt := chaos.SweepTarget{
		Init:      func(s *store.Store) error { st = s; return nil },
		Reference: func() ([]byte, error) { return reduce(set.Image(), fleet) },
		Recover: func(rec *store.Recovery) ([]byte, error) {
			rs := NewSet()
			var m *manager.Manager
			for _, r := range rec.Records {
				var err error
				switch {
				case manager.IsFleetRecord(r.Type):
					m, err = manager.ApplyRecord(m, r.Type, r.Data)
				case r.Type == RecSpecUpdate:
					var sr SpecRecord
					if err = json.Unmarshal(r.Data, &sr); err == nil {
						err = rs.ReplaySpec(sr)
					}
				case r.Type == RecObserved:
					var or ObservedRecord
					if err = json.Unmarshal(r.Data, &or); err == nil {
						err = rs.ReplayObserved(or)
					}
				default:
					err = fmt.Errorf("unexpected record type %q", r.Type)
				}
				if err != nil {
					return nil, fmt.Errorf("seq %d: %w", r.Seq, err)
				}
			}
			var fl *manager.Locked
			if m != nil {
				fl = manager.Wrap(m)
			}
			// The invariant under test: an observed generation is only
			// ever recovered together with every deploy it observed.
			for _, v := range rs.List() {
				if v.Observed == 0 {
					continue
				}
				deployed := map[string]bool{}
				if fl != nil {
					for _, id := range fl.Workflows() {
						deployed[id] = true
					}
				}
				for _, ws := range v.Spec.Workflows {
					if !deployed[ws.ID] {
						return nil, fmt.Errorf("spec %q recovered at observedGeneration %d without its deploy of %q",
							v.Name, v.Observed, ws.ID)
					}
				}
			}
			return reduce(rs.List(), fl)
		},
		Empty: empty,
	}
	rep, err := chaos.RecordSweep(t.TempDir(), steps, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Torn == 0 || rep.Clean == 0 {
		t.Fatalf("first-converge sweep exercised no torn or no clean offsets: %+v", rep)
	}
	t.Logf("tenant %s first converge: %d offsets swept (%d torn, %d clean) across %d steps",
		tenant, rep.Offsets, rep.Torn, rep.Clean, rep.Steps)
}
