package wfio

import (
	"bytes"
	"strings"
	"testing"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

func TestWorkflowRoundTrip(t *testing.T) {
	w := gen.MotivatingExample()
	var buf bytes.Buffer
	if err := EncodeWorkflow(&buf, w); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeWorkflow(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M() != w.M() || len(got.Edges) != len(w.Edges) || got.Name != w.Name {
		t.Fatalf("round trip changed shape: %s vs %s", got, w)
	}
	for u := range w.Nodes {
		if got.Nodes[u].Kind != w.Nodes[u].Kind || got.Nodes[u].Cycles != w.Nodes[u].Cycles {
			t.Fatalf("node %d changed", u)
		}
	}
	for e := range w.Edges {
		if got.Edges[e] != w.Edges[e] {
			t.Fatalf("edge %d changed: %+v vs %+v", e, got.Edges[e], w.Edges[e])
		}
	}
}

func TestWorkflowRoundTripRandomGraphs(t *testing.T) {
	c := gen.ClassC()
	for seed := uint64(0); seed < 10; seed++ {
		w, err := c.GraphWorkflow(stats.NewRNG(seed), 20, gen.Bushy)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeWorkflow(&buf, w); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeWorkflow(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got.M() != w.M() {
			t.Fatalf("seed %d: size changed", seed)
		}
	}
}

func TestDecodeWorkflowRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":       "not json",
		"unknown kind":  `{"name":"x","nodes":[{"name":"a","kind":"NOPE","cycles":1}],"edges":[]}`,
		"unknown field": `{"name":"x","bogus":1,"nodes":[],"edges":[]}`,
		"invalid graph": `{"name":"x","nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":5,"sizeBits":1}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeWorkflow(strings.NewReader(in)); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

func TestDecodeWorkflowDefaultsWeight(t *testing.T) {
	in := `{"name":"x","nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":1,"sizeBits":8}]}`
	w, err := DecodeWorkflow(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Edges[0].Weight != 1 {
		t.Fatalf("default weight = %v", w.Edges[0].Weight)
	}
}

func TestNetworkRoundTripBus(t *testing.T) {
	n, err := network.NewBus("b", []float64{1e9, 2e9, 3e9}, 1e8, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeNetwork(&buf, n); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"bus"`) {
		t.Fatalf("bus not encoded as BusSpec: %s", buf.String())
	}
	got, err := DecodeNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 3 || got.Topology() != network.Bus {
		t.Fatalf("round trip changed bus: %s", got)
	}
	if got.TransferTime(0, 2, 1e8) != n.TransferTime(0, 2, 1e8) {
		t.Fatal("bus cost changed")
	}
}

func TestNetworkRoundTripLine(t *testing.T) {
	n, err := network.NewLine("l", []float64{1e9, 2e9, 3e9}, []float64{1e7, 2e7}, []float64{0.002, 0.003})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeNetwork(&buf, n); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology() != network.Line || got.N() != 3 {
		t.Fatalf("round trip changed line: %s", got)
	}
	if got.Links[0].PropDelay != 0.002 {
		t.Fatal("prop delay lost")
	}
}

func TestDecodeNetworkRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "nope",
		"bus and links":  `{"name":"x","servers":[{"name":"a","powerHz":1}],"links":[{"a":0,"b":0,"speedBps":1}],"bus":{"speedBps":1}}`,
		"invalid server": `{"name":"x","servers":[{"name":"a","powerHz":-1}],"bus":{"speedBps":1}}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeNetwork(strings.NewReader(in)); err == nil {
				t.Fatal("bad input accepted")
			}
		})
	}
}

func TestMappingRoundTrip(t *testing.T) {
	mp := deploy.Mapping{0, 2, 1, 0}
	var buf bytes.Buffer
	if err := EncodeMapping(&buf, mp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMapping(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(mp) {
		t.Fatal("length changed")
	}
	for i := range mp {
		if got[i] != mp[i] {
			t.Fatal("assignment changed")
		}
	}
	if _, err := DecodeMapping(strings.NewReader("zap")); err == nil {
		t.Fatal("garbage mapping accepted")
	}
}

func TestWorkflowDOT(t *testing.T) {
	w := gen.MotivatingExample()
	dot := WorkflowDOT(w, nil)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "ConductMeeting") {
		t.Fatalf("bad DOT: %s", dot[:100])
	}
	// With a mapping: clusters appear.
	mp := deploy.Uniform(w.M(), 0)
	mp[0] = 1
	dot = WorkflowDOT(w, mp)
	if !strings.Contains(dot, "cluster_s0") || !strings.Contains(dot, "cluster_s1") {
		t.Fatal("clusters missing from deployed DOT")
	}
}

func TestNetworkDOT(t *testing.T) {
	n, err := network.NewBus("b", []float64{1e9, 2e9}, 1e8, 0)
	if err != nil {
		t.Fatal(err)
	}
	dot := NetworkDOT(n)
	if !strings.Contains(dot, "graph") || !strings.Contains(dot, "Mbps") {
		t.Fatalf("bad network DOT: %s", dot)
	}
}

// TestDecodeKeepsEncodingJSONBehaviour pins, by value, the encoding/json
// behaviours the codec reproduces (the differential fuzz checks them
// against the library itself).
func TestDecodeKeepsEncodingJSONBehaviour(t *testing.T) {
	node := func(in string) workflow.Node {
		t.Helper()
		w, err := UnmarshalWorkflow([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		return w.Nodes[0]
	}
	// A repeated array decodes into the elements already there.
	if nd := node(`{"nodes":[{"name":"a","kind":"OP","cycles":5}],"nodes":[{"name":"b"}]}`); nd.Name != "b" || nd.Cycles != 5 {
		t.Fatalf("repeated nodes array: %+v, want {b OP 5}", nd)
	}
	// Keys fold case, Unicode simple folding included; null keeps a
	// field; bytes after the first value are ignored.
	if nd := node("{\"NODES\":[{\"Name\":\"a\",\"\u212aind\":\"OP\",\"cycles\":1,\"cycles\":null}]} trailing"); nd.Cycles != 1 {
		t.Fatalf("folded keys: %+v", nd)
	}
	// Lone surrogates and invalid UTF-8 decode as U+FFFD.
	if nd := node("{\"nodes\":[{\"name\":\"\\ud800-\xff\",\"kind\":\"OP\",\"cycles\":1}]}"); nd.Name != "\ufffd-\ufffd" {
		t.Fatalf("replacement characters: %q", nd.Name)
	}
	for _, in := range []string{
		`{"nodes":[{"name":"a","kind":"OP","cycles":1e400}]}`,
		`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":1.0}]}`,
		`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":1e0}]}`,
		`{"nodes":[{"name":"a","kind":"OP","cycles":1,"bogus":0}]}`,
	} {
		if _, err := UnmarshalWorkflow([]byte(in)); err == nil {
			t.Fatalf("accepted %s", in)
		}
	}
}
