package manager_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"wsdeploy/internal/manager"
	"wsdeploy/internal/network"
	"wsdeploy/internal/reconcile"
	"wsdeploy/internal/store"
	"wsdeploy/internal/wfio"
	"wsdeploy/internal/workflow"
)

// The journal and snapshot payloads as the encoding/json codec wrote
// them: each workflow or network indented by a json.Encoder, then
// compacted back into the record by json.Marshal.

func indentedJSON(t *testing.T, v any) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oldWorkflowJSON(t *testing.T, w *workflow.Workflow) json.RawMessage {
	spec := wfio.WorkflowSpec{Name: w.Name}
	for _, nd := range w.Nodes {
		spec.Nodes = append(spec.Nodes, wfio.NodeSpec{Name: nd.Name, Kind: nd.Kind.String(), Cycles: nd.Cycles})
	}
	for _, e := range w.Edges {
		spec.Edges = append(spec.Edges, wfio.EdgeSpec{From: e.From, To: e.To, SizeBits: e.SizeBits, Weight: e.Weight})
	}
	return indentedJSON(t, spec)
}

func oldNetworkJSON(t *testing.T, n *network.Network) json.RawMessage {
	spec := wfio.NetworkSpec{Name: n.Name}
	for _, s := range n.Servers {
		spec.Servers = append(spec.Servers, wfio.ServerSpec{Name: s.Name, PowerHz: s.PowerHz, Region: s.Region})
	}
	if n.Topology() == network.Bus && len(n.Links) > 0 {
		spec.Bus = &wfio.BusSpec{SpeedBps: n.Links[0].SpeedBps, PropDelay: n.Links[0].PropDelay}
	} else {
		for _, l := range n.Links {
			spec.Links = append(spec.Links, wfio.LinkSpec{A: l.A, B: l.B, SpeedBps: l.SpeedBps, PropDelay: l.PropDelay})
		}
	}
	return indentedJSON(t, spec)
}

// Mirrors of the record and snapshot shapes, field for field.
type (
	oldCreate struct {
		Network json.RawMessage `json:"network"`
	}
	oldDeploy struct {
		ID       string          `json:"id"`
		Workflow json.RawMessage `json:"workflow"`
		Mapping  []int           `json:"mapping"`
	}
	oldSnapshot struct {
		Network   json.RawMessage `json:"network"`
		Down      []int           `json:"down,omitempty"`
		Workflows []oldDeploy     `json:"workflows"`
	}
)

// Names that exercise every escaping rule of the string encoder, and
// floats on both sides of encoding/json's exponent-notation cutoffs.
var (
	awkwardNames = []string{
		"<script>&amp;", "line\u2028para\u2029", "Zürich-東京-😀",
		"bad\xff\xfeutf8", "trunc\xe2\x82", "quote\"back\\slash\ttab\x01",
	}
	boundaryFloats = []float64{
		1e-7, 1e-6, 9.999999999999999e-7, 1e21, 9.999999999999999e20, 1e20,
		5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 123456789.125, 0.1,
	}
)

// awkwardWorkflow is a chain of ops (an XOR split in the middle, so
// edge weights are encoded too) carrying awkward names and floats.
func awkwardWorkflow(t *testing.T, name string, shift int) *workflow.Workflow {
	t.Helper()
	f := func(i int) float64 { return boundaryFloats[(i+shift)%len(boundaryFloats)] }
	nodes := []workflow.Node{
		{Name: awkwardNames[shift%len(awkwardNames)], Kind: workflow.Operational, Cycles: f(0), Complement: -1},
		{Name: "x", Kind: workflow.XorSplit, Cycles: 0, Complement: -1},
		{Name: awkwardNames[(shift+1)%len(awkwardNames)], Kind: workflow.Operational, Cycles: f(1), Complement: -1},
		{Name: awkwardNames[(shift+2)%len(awkwardNames)], Kind: workflow.Operational, Cycles: f(2), Complement: -1},
		{Name: "/x", Kind: workflow.XorJoin, Cycles: negZero(), Complement: -1},
		{Name: awkwardNames[(shift+3)%len(awkwardNames)], Kind: workflow.Operational, Cycles: f(3), Complement: -1},
	}
	edges := []workflow.Edge{
		{From: 0, To: 1, SizeBits: f(4), Weight: 1},
		{From: 1, To: 2, SizeBits: f(5), Weight: f(6)},
		{From: 1, To: 3, SizeBits: negZero(), Weight: f(7)},
		{From: 2, To: 4, SizeBits: f(8), Weight: 1},
		{From: 3, To: 4, SizeBits: f(9), Weight: 1},
		{From: 4, To: 5, SizeBits: f(10), Weight: 1},
	}
	w, err := workflow.New(name, nodes, edges)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func negZero() float64 {
	z := 0.0
	return -z
}

type storeJournal struct{ st *store.Store }

func (j storeJournal) Record(typ string, data any) error {
	_, err := j.st.Append(typ, data)
	return err
}

// TestWALBytesMatchEncodingJSON journals a fleet genesis, a converging
// 3-workflow reconcile pass and a deploy through a real store, then
// checks every record body — and the fleet snapshot — against the bytes
// the encoding/json codec produced for the same state.
func TestWALBytesMatchEncodingJSON(t *testing.T) {
	dir := t.TempDir()
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	powers := []float64{1e9, 2e9, 1e21, 1e-7}
	net, err := network.NewBus("bus<&>\u2028", powers, 1e8, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range net.Servers {
		net.Servers[i].Name = awkwardNames[i]
		net.Servers[i].Region = awkwardNames[len(awkwardNames)-1-i]
	}

	// Genesis.
	fleet := manager.NewLocked(net)
	genesis, err := manager.CreateRecord(fleet)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(manager.RecFleetCreate, genesis); err != nil {
		t.Fatal(err)
	}
	fleet.AttachJournal(storeJournal{st})

	// A converging pass deploys three workflows.
	want := map[string]*workflow.Workflow{}
	var spec reconcile.Spec
	for i, id := range []string{"billing<1>", "ship&2", "audit\u2029"} {
		w := awkwardWorkflow(t, awkwardNames[i], i)
		body, err := wfio.AppendWorkflow(nil, w)
		if err != nil {
			t.Fatal(err)
		}
		spec.Workflows = append(spec.Workflows, reconcile.WorkflowSpec{ID: id, Workflow: body})
		// The spec's copy went through the decoder, which repairs
		// invalid UTF-8; the fleet holds the decoded workflow.
		if want[id], err = wfio.UnmarshalWorkflow(body); err != nil {
			t.Fatal(err)
		}
	}
	set := reconcile.NewSet()
	set.Put("app", spec)
	exec := &reconcile.FleetExecutor{Fleet: fleet}
	if res := reconcile.New(set, exec, reconcile.Config{}).RunPass(0); !res.Converged {
		t.Fatalf("pass did not converge: %+v", res)
	}

	// A deploy of a workflow whose names are still invalid UTF-8.
	extra := awkwardWorkflow(t, "bad\xffname", 4)
	want["extra"] = extra
	if err := fleet.Deploy("extra", extra); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, rec, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	deploys := 0
	for _, r := range rec.Records {
		var wantBody []byte
		switch r.Type {
		case manager.RecFleetCreate:
			wantBody, err = json.Marshal(oldCreate{Network: oldNetworkJSON(t, net)})
		case manager.RecDeploy, manager.RecAdopt:
			var got oldDeploy
			if err := json.Unmarshal(r.Data, &got); err != nil {
				t.Fatal(err)
			}
			w, ok := want[got.ID]
			if !ok {
				t.Fatalf("record %d deploys unknown workflow %q", r.Seq, got.ID)
			}
			deploys++
			wantBody, err = json.Marshal(oldDeploy{ID: got.ID, Workflow: oldWorkflowJSON(t, w), Mapping: got.Mapping})
		default:
			t.Fatalf("unexpected record type %s", r.Type)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(r.Data, wantBody) {
			t.Fatalf("record %d (%s) differs from the encoding/json bytes:\n got %s\nwant %s", r.Seq, r.Type, r.Data, wantBody)
		}
	}
	if deploys != len(want) {
		t.Fatalf("journaled %d placements, want %d", deploys, len(want))
	}

	snap, err := fleet.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	old := oldSnapshot{Network: oldNetworkJSON(t, net), Down: fleet.DownServers()}
	for _, id := range fleet.Workflows() {
		mp, _ := fleet.Mapping(id)
		old.Workflows = append(old.Workflows, oldDeploy{ID: id, Workflow: oldWorkflowJSON(t, want[id]), Mapping: mp})
	}
	wantSnap, err := json.MarshalIndent(old, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Fatalf("snapshot differs from the encoding/json bytes:\n got %s\nwant %s", snap, wantSnap)
	}
}
