package wfio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// The differential oracle: the codec as it was on encoding/json. The
// hand-written codec must accept exactly what these accept, build the
// same specs, and encode exactly what they encode.

// oracleWorkflowSpec decodes data the way DecodeWorkflow did through
// encoding/json.
func oracleWorkflowSpec(data []byte) (WorkflowSpec, error) {
	var spec WorkflowSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// oracleWorkflow is DecodeWorkflow as it was on encoding/json.
func oracleWorkflow(data []byte) (*workflow.Workflow, error) {
	spec, err := oracleWorkflowSpec(data)
	if err != nil {
		return nil, err
	}
	nodes := make([]workflow.Node, len(spec.Nodes))
	for i, ns := range spec.Nodes {
		kind, ok := kindNames[ns.Kind]
		if !ok {
			return nil, fmt.Errorf("node %d (%s) has unknown kind %q", i, ns.Name, ns.Kind)
		}
		nodes[i] = workflow.Node{Name: ns.Name, Kind: kind, Cycles: ns.Cycles, Complement: -1}
	}
	edges := make([]workflow.Edge, len(spec.Edges))
	for i, es := range spec.Edges {
		weight := es.Weight
		if weight == 0 {
			weight = 1
		}
		edges[i] = workflow.Edge{From: es.From, To: es.To, SizeBits: es.SizeBits, Weight: weight}
	}
	return workflow.New(spec.Name, nodes, edges)
}

func oracleNetworkSpec(data []byte) (NetworkSpec, error) {
	var spec NetworkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// oracleNetwork is DecodeNetwork as it was on encoding/json.
func oracleNetwork(data []byte) (*network.Network, error) {
	spec, err := oracleNetworkSpec(data)
	if err != nil {
		return nil, err
	}
	if spec.Bus != nil {
		if len(spec.Links) > 0 {
			return nil, fmt.Errorf("network %q sets both bus and explicit links", spec.Name)
		}
		powers := make([]float64, len(spec.Servers))
		for i, s := range spec.Servers {
			powers[i] = s.PowerHz
		}
		n, err := network.NewBus(spec.Name, powers, spec.Bus.SpeedBps, spec.Bus.PropDelay)
		if err != nil {
			return nil, err
		}
		for i, s := range spec.Servers {
			n.Servers[i].Name = s.Name
			n.Servers[i].Region = s.Region
		}
		return n, nil
	}
	servers := make([]network.Server, len(spec.Servers))
	for i, s := range spec.Servers {
		servers[i] = network.Server{Name: s.Name, PowerHz: s.PowerHz, Region: s.Region}
	}
	links := make([]network.Link, len(spec.Links))
	for i, l := range spec.Links {
		links[i] = network.Link{A: l.A, B: l.B, SpeedBps: l.SpeedBps, PropDelay: l.PropDelay}
	}
	return network.New(spec.Name, servers, links)
}

func oracleMappingSpec(data []byte) (MappingSpec, error) {
	var spec MappingSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// workflowSpecOf is the spec the encoding/json EncodeWorkflow marshalled.
func workflowSpecOf(w *workflow.Workflow) WorkflowSpec {
	spec := WorkflowSpec{Name: w.Name}
	for _, nd := range w.Nodes {
		spec.Nodes = append(spec.Nodes, NodeSpec{Name: nd.Name, Kind: nd.Kind.String(), Cycles: nd.Cycles})
	}
	for _, e := range w.Edges {
		spec.Edges = append(spec.Edges, EdgeSpec{From: e.From, To: e.To, SizeBits: e.SizeBits, Weight: e.Weight})
	}
	return spec
}

// networkSpecOf is the spec the encoding/json EncodeNetwork marshalled.
func networkSpecOf(n *network.Network) NetworkSpec {
	spec := NetworkSpec{Name: n.Name}
	for _, s := range n.Servers {
		spec.Servers = append(spec.Servers, ServerSpec{Name: s.Name, PowerHz: s.PowerHz, Region: s.Region})
	}
	if n.Topology() == network.Bus && len(n.Links) > 0 {
		spec.Bus = &BusSpec{SpeedBps: n.Links[0].SpeedBps, PropDelay: n.Links[0].PropDelay}
	} else {
		for _, l := range n.Links {
			spec.Links = append(spec.Links, LinkSpec{A: l.A, B: l.B, SpeedBps: l.SpeedBps, PropDelay: l.PropDelay})
		}
	}
	return spec
}

// oracleIndented is what the encoding/json Encode* functions wrote.
func oracleIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameFloat compares bit for bit, so -0 differs from 0.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameLen also tells a nil slice from an empty one.
func sameLen[T any](a, b []T) bool { return len(a) == len(b) && (a == nil) == (b == nil) }

func diffWorkflowSpec(a, b WorkflowSpec) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if !sameLen(a.Nodes, b.Nodes) || !sameLen(a.Edges, b.Edges) {
		return fmt.Sprintf("shape %v/%v nodes, %v/%v edges", a.Nodes, b.Nodes, a.Edges, b.Edges)
	}
	for i, x := range a.Nodes {
		if y := b.Nodes[i]; x.Name != y.Name || x.Kind != y.Kind || !sameFloat(x.Cycles, y.Cycles) {
			return fmt.Sprintf("node %d: %+v vs %+v", i, x, y)
		}
	}
	for i, x := range a.Edges {
		if y := b.Edges[i]; x.From != y.From || x.To != y.To || !sameFloat(x.SizeBits, y.SizeBits) || !sameFloat(x.Weight, y.Weight) {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

func diffNetworkSpec(a, b NetworkSpec) string {
	if a.Name != b.Name {
		return fmt.Sprintf("name %q vs %q", a.Name, b.Name)
	}
	if !sameLen(a.Servers, b.Servers) || !sameLen(a.Links, b.Links) || (a.Bus == nil) != (b.Bus == nil) {
		return fmt.Sprintf("shape %v/%v servers, %v/%v links, bus %v/%v", a.Servers, b.Servers, a.Links, b.Links, a.Bus, b.Bus)
	}
	for i, x := range a.Servers {
		if y := b.Servers[i]; x.Name != y.Name || x.Region != y.Region || !sameFloat(x.PowerHz, y.PowerHz) {
			return fmt.Sprintf("server %d: %+v vs %+v", i, x, y)
		}
	}
	for i, x := range a.Links {
		if y := b.Links[i]; x.A != y.A || x.B != y.B || !sameFloat(x.SpeedBps, y.SpeedBps) || !sameFloat(x.PropDelay, y.PropDelay) {
			return fmt.Sprintf("link %d: %+v vs %+v", i, x, y)
		}
	}
	if a.Bus != nil && (!sameFloat(a.Bus.SpeedBps, b.Bus.SpeedBps) || !sameFloat(a.Bus.PropDelay, b.Bus.PropDelay)) {
		return fmt.Sprintf("bus %+v vs %+v", *a.Bus, *b.Bus)
	}
	return ""
}

func diffWorkflow(a, b *workflow.Workflow) string {
	if a.Name != b.Name || len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		return fmt.Sprintf("%s vs %s", a, b)
	}
	for i, x := range a.Nodes {
		if y := b.Nodes[i]; x.Name != y.Name || x.Kind != y.Kind || x.Complement != y.Complement || !sameFloat(x.Cycles, y.Cycles) {
			return fmt.Sprintf("node %d: %+v vs %+v", i, x, y)
		}
	}
	for i, x := range a.Edges {
		if y := b.Edges[i]; x.From != y.From || x.To != y.To || !sameFloat(x.SizeBits, y.SizeBits) || !sameFloat(x.Weight, y.Weight) {
			return fmt.Sprintf("edge %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

func diffNetwork(a, b *network.Network) string {
	if a.Name != b.Name || len(a.Servers) != len(b.Servers) || len(a.Links) != len(b.Links) || a.Topology() != b.Topology() {
		return fmt.Sprintf("%s vs %s", a, b)
	}
	for i, x := range a.Servers {
		if y := b.Servers[i]; x.Name != y.Name || x.Region != y.Region || !sameFloat(x.PowerHz, y.PowerHz) {
			return fmt.Sprintf("server %d: %+v vs %+v", i, x, y)
		}
	}
	for i, x := range a.Links {
		if y := b.Links[i]; x.A != y.A || x.B != y.B || !sameFloat(x.SpeedBps, y.SpeedBps) || !sameFloat(x.PropDelay, y.PropDelay) {
			return fmt.Sprintf("link %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// checkWorkflowAgainstOracle decodes data with the codec and the oracle
// and fails on any difference: acceptance, decoded spec, built
// workflow, compact and indented encodings.
func checkWorkflowAgainstOracle(t *testing.T, data []byte) (*workflow.Workflow, error) {
	t.Helper()
	if want, err := oracleWorkflowSpec(data); err == nil {
		got, err := decodeWorkflowSpec(data)
		if err != nil {
			t.Fatalf("codec rejects %q, which encoding/json accepts: %v", data, err)
		}
		if d := diffWorkflowSpec(want, got); d != "" {
			t.Fatalf("decoded spec differs on %q: %s", data, d)
		}
	}
	want, wantErr := oracleWorkflow(data)
	w, err := UnmarshalWorkflow(data)
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("acceptance differs on %q: encoding/json %v, codec %v", data, wantErr, err)
	}
	if err != nil {
		return nil, err
	}
	if d := diffWorkflow(want, w); d != "" {
		t.Fatalf("built workflow differs on %q: %s", data, d)
	}
	compact, err := AppendWorkflow(nil, w)
	if err != nil {
		t.Fatalf("accepted workflow unencodable: %v", err)
	}
	spec := workflowSpecOf(w)
	if oracle, _ := json.Marshal(spec); !bytes.Equal(compact, oracle) {
		t.Fatalf("compact encoding differs from json.Marshal:\n%s\n%s", compact, oracle)
	}
	var buf bytes.Buffer
	if err := EncodeWorkflow(&buf, w); err != nil {
		t.Fatal(err)
	}
	if oracle := oracleIndented(t, spec); !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatalf("indented encoding differs from json.Encoder:\n%s\n%s", buf.Bytes(), oracle)
	}
	return w, nil
}

// checkNetworkAgainstOracle is checkWorkflowAgainstOracle for networks.
func checkNetworkAgainstOracle(t *testing.T, data []byte) (*network.Network, error) {
	t.Helper()
	if want, err := oracleNetworkSpec(data); err == nil {
		got, err := decodeNetworkSpec(data)
		if err != nil {
			t.Fatalf("codec rejects %q, which encoding/json accepts: %v", data, err)
		}
		if d := diffNetworkSpec(want, got); d != "" {
			t.Fatalf("decoded spec differs on %q: %s", data, d)
		}
	}
	want, wantErr := oracleNetwork(data)
	n, err := UnmarshalNetwork(data)
	if (wantErr == nil) != (err == nil) {
		t.Fatalf("acceptance differs on %q: encoding/json %v, codec %v", data, wantErr, err)
	}
	if err != nil {
		return nil, err
	}
	if d := diffNetwork(want, n); d != "" {
		t.Fatalf("built network differs on %q: %s", data, d)
	}
	compact, err := AppendNetwork(nil, n)
	if err != nil {
		t.Fatalf("accepted network unencodable: %v", err)
	}
	spec := networkSpecOf(n)
	if oracle, _ := json.Marshal(spec); !bytes.Equal(compact, oracle) {
		t.Fatalf("compact encoding differs from json.Marshal:\n%s\n%s", compact, oracle)
	}
	var buf bytes.Buffer
	if err := EncodeNetwork(&buf, n); err != nil {
		t.Fatal(err)
	}
	if oracle := oracleIndented(t, spec); !bytes.Equal(buf.Bytes(), oracle) {
		t.Fatalf("indented encoding differs from json.Encoder:\n%s\n%s", buf.Bytes(), oracle)
	}
	return n, nil
}

// checkStringAgainstOracle compares AppendString with json.Marshal on
// arbitrary bytes, invalid UTF-8 included.
func checkStringAgainstOracle(t *testing.T, s string) {
	t.Helper()
	want, _ := json.Marshal(s)
	if got := AppendString(nil, s); !bytes.Equal(got, want) {
		t.Fatalf("AppendString(%q) = %s, json.Marshal = %s", s, got, want)
	}
}

// TestMappingCodecMatchesEncodingJSON holds the mapping codec to the
// oracle: acceptance, decoded values (nil and empty kept apart) and
// the indented encoding.
func TestMappingCodecMatchesEncodingJSON(t *testing.T) {
	inputs := []string{
		`{"assignment":[0,2,1]}`, `{"assignment":[]}`, `{"assignment":null}`, `null`, `{}`,
		`{"ASSIGNMENT":[1]}`, `{"assignment":[1,2],"assignment":[null]}`,
		`{"assignment":[1,2,3],"assignment":[],"assignment":[null,null]}`,
		`{"assignment":[1.5]}`, `{"assignment":[1e1]}`, `{"assignment":["1"]}`, `{"assignment":{}}`,
		`{"assignment":[1],"x":1}`, `{"assignment":[1,]}`, `{"assignment":[-0]} trailing`, `zap`, ``,
	}
	for _, in := range inputs {
		want, wantErr := oracleMappingSpec([]byte(in))
		got, err := DecodeMapping(bytes.NewReader([]byte(in)))
		if (wantErr == nil) != (err == nil) {
			t.Fatalf("acceptance differs on %q: encoding/json %v, codec %v", in, wantErr, err)
		}
		if err != nil {
			continue
		}
		if !sameLen(want.Assignment, got) || fmt.Sprint(want.Assignment) != fmt.Sprint([]int(got)) {
			t.Fatalf("%q: decoded %#v, encoding/json %#v", in, got, want.Assignment)
		}
		var buf bytes.Buffer
		if err := EncodeMapping(&buf, got); err != nil {
			t.Fatal(err)
		}
		if oracle := oracleIndented(t, MappingSpec{Assignment: got}); !bytes.Equal(buf.Bytes(), oracle) {
			t.Fatalf("%q: encoded\n%s\nencoding/json\n%s", in, buf.Bytes(), oracle)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON pins the float format at
// encoding/json's notation cutoffs, and the refusal of NaN and ±Inf.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7,
		1e20, 1e21, -1e21, 9.999999999999999e20, 123456789.125, 1e100, 1e-100,
		5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want, _ := json.Marshal(f)
		got, err := appendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("appendFloat(%v) = %s, %v; json.Marshal = %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendFloat(nil, f); err == nil {
			t.Fatalf("appendFloat(%v) accepted a value JSON cannot hold", f)
		}
	}
}
