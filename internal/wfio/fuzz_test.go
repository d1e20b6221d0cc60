package wfio

import (
	"bytes"
	"strings"
	"testing"
)

// jsonBehaviourSeeds pin the encoding/json behaviours the codec must
// reproduce; the network fuzzer reuses them with its own field names.
var jsonBehaviourSeeds = []string{
	// Keys match case-insensitively, under Unicode simple folding too:
	// U+212A KELVIN SIGN folds to k, U+017F LONG S to s.
	`{"NAME":"w","NODES":[{"Name":"A","Kind":"OP","CYCLES":1}],"Edges":null}`,
	"{\"name\":\"w\",\"node\u017f\":[{\"name\":\"A\",\"\u212aind\":\"OP\",\"cycles\":1}]}",
	`{"name":"w","node\u017f":[{"name":"A","\u212aind":"OP","cycles":1}]}`,
	// A repeated array decodes into the elements already there: {b OP 5}.
	`{"nodes":[{"name":"a","kind":"OP","cycles":5}],"nodes":[{"name":"b"}]}`,
	// ... including elements a shorter array hid past its length, until
	// null drops them.
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":2}],"nodes":[{}],"nodes":[{},{}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":2}],"nodes":null,"nodes":[{},{}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1}],"edges":[],"edges":[{"from":0,"to":0}],"edges":[]}`,
	// An empty array drops the hidden elements too.
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":2}],"nodes":[],"nodes":[{},{}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":2}],"nodes":[null],"nodes":[null,null]}`,
	// null leaves a scalar or an element unchanged.
	`{"name":"w","name":null,"nodes":[{"name":"a","kind":"OP","cycles":1}],"nodes":[null]}`,
	`{"name":"w","nodes":[{"name":null,"kind":"OP","cycles":null}],"edges":null}`,
	`null`,
	`null trailing`,
	// Bytes after the first value are ignored, valid or not.
	`{"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1}]} {"bogus"`,
	`{"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1}]}]]]`,
	// Int fields take integers only; float fields reject overflow but
	// not underflow.
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":1.0,"to":1}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":1e0}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":-0}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1}],"edges":[{"from":99999999999999999999,"to":0}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1e400}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":1e-400}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":-0.0E+00}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":01}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":"1"}]}`,
	`{"nodes":[{"name":"a","kind":"OP","cycles":true}]}`,
	// \u escapes: a surrogate pair, a lone surrogate (U+FFFD), escaped
	// key characters.
	`{"name":"\ud83d\ude00 \ud800 \udc00x \u00e9\u2028\"\\\/\b\f\n\r\t","nodes":[{"\u006eame":"a","kind":"\u004fP","cycles":1}]}`,
	`{"name":"\ud800\ud800\udc00","nodes":[{"name":"a","kind":"OP","cycles":1}]}`,
	`{"name":"\u12","nodes":[]}`,
	`{"name":"\x","nodes":[]}`,
	// Invalid UTF-8 decodes as U+FFFD; control characters are rejected.
	"{\"name\":\"bad \xff\xfe \xed\xa0\x80 utf8\",\"nodes\":[{\"name\":\"a\",\"kind\":\"OP\",\"cycles\":1}]}",
	"{\"name\":\"tab\there\",\"nodes\":[]}",
	// Unknown fields at every level.
	`{"name":"w","nodes":[],"extra":1}`,
	`{"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1,"extra":null}]}`,
	`{"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1},{"name":"b","kind":"OP","cycles":1}],"edges":[{"from":0,"to":1,"extra":{}}]}`,
	// Syntax at the edges.
	` 	
 {"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1}]}`,
	`{"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1},]}`,
	`{"name":"w",}`,
	`{"name":"w" "nodes":[]}`,
	`{"name":"w","nodes":[{"name":"a","kind":"OP","cycles":1}]`,
	`{"nodes":[{"name":"<a&b>","kind":"OP","cycles":1},{"name":"\u2028\u2029","kind":"OP","cycles":1e-7}],"edges":[{"from":0,"to":1,"sizeBits":1e21,"weight":5e-324}]}`,
	``,
	`nul`,
}

// FuzzDecodeWorkflowJSON asserts the workflow codec is total and
// equivalent to encoding/json: arbitrary bytes never panic, the codec
// and the encoding/json oracle accept the same inputs and build the
// same workflow, the encoders write the oracle's bytes, and any spec it
// accepts survives an Encode → Decode round-trip with its shape intact.
func FuzzDecodeWorkflowJSON(f *testing.F) {
	f.Add([]byte(`{"name":"w","nodes":[{"name":"A","kind":"OP","cycles":1e6}],"edges":[]}`))
	f.Add([]byte(`{"name":"w","nodes":[
		{"name":"A","kind":"OP","cycles":1e6},
		{"name":"X","kind":"XOR","cycles":1e5},
		{"name":"B","kind":"OP","cycles":2e6},
		{"name":"C","kind":"OP","cycles":3e6},
		{"name":"M","kind":"XOR-JOIN","cycles":0},
		{"name":"D","kind":"OP","cycles":1e6}],
		"edges":[
		{"from":0,"to":1,"bits":8000},
		{"from":1,"to":2,"bits":8000,"prob":0.5},
		{"from":1,"to":3,"bits":8000,"prob":0.5},
		{"from":2,"to":4,"bits":8000},
		{"from":3,"to":4,"bits":8000},
		{"from":4,"to":5,"bits":8000}]}`))
	f.Add([]byte(`{"nodes":[{"kind":"AND","cycles":-1}]}`))
	f.Add([]byte(`{"name":"w","nodes":[{"name":"A","kind":"OP","cycles":1}],"edges":[{"from":0,"to":0}]}`))
	f.Add([]byte(`{"name":"w","nodes":[{"name":"A","kind":"OP","cycles":1}],"edges":[{"from":-1,"to":9}]}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[1,2,3]`))
	for _, seed := range jsonBehaviourSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkStringAgainstOracle(t, string(data))
		w, err := checkWorkflowAgainstOracle(t, data)
		if err != nil {
			return // rejection is fine as long as encoding/json rejects too
		}
		var buf bytes.Buffer
		if err := EncodeWorkflow(&buf, w); err != nil {
			t.Fatalf("accepted workflow unencodable: %v", err)
		}
		w2, err := DecodeWorkflow(&buf)
		if err != nil {
			t.Fatalf("encoded output undecodable: %v\n%s", err, buf.String())
		}
		if w2.M() != w.M() || len(w2.Edges) != len(w.Edges) {
			t.Fatalf("round trip changed shape: %d/%d nodes, %d/%d edges",
				w.M(), w2.M(), len(w.Edges), len(w2.Edges))
		}
	})
}

// FuzzDecodeNetworkJSON asserts the network codec is total, equivalent
// to encoding/json (see FuzzDecodeWorkflowJSON), and that accepted
// specs round-trip — including server names, which crash recovery
// depends on (see UnmarshalNetwork's bus branch).
func FuzzDecodeNetworkJSON(f *testing.F) {
	f.Add([]byte(`{"name":"b","servers":[{"name":"S1","powerHz":1e9}],"bus":{"speedBps":1e8}}`))
	f.Add([]byte(`{"name":"b","servers":[
		{"name":"S1","powerHz":1e9},{"name":"joined","powerHz":2.5e9}],
		"bus":{"speedBps":1e8,"propDelay":1e-4}}`))
	f.Add([]byte(`{"name":"l","servers":[{"name":"a","powerHz":1e9},{"name":"b","powerHz":2e9}],
		"links":[{"a":0,"b":1,"speedBps":1e8}]}`))
	f.Add([]byte(`{"name":"x","servers":[],"bus":{"speedBps":0}}`))
	f.Add([]byte(`{"name":"x","servers":[{"powerHz":-5}],"bus":{"speedBps":1e8}}`))
	f.Add([]byte(`{"name":"x","servers":[{"powerHz":1}],"links":[{"a":0,"b":7,"speedBps":1}]}`))
	// Multi-region specs: region labels on a bus, on explicit links with
	// a WAN hop, and a label that survives only if the decoder copies it
	// on the bus fast path too.
	f.Add([]byte(`{"name":"geo","servers":[
		{"name":"eu/S1","powerHz":1e9,"region":"eu"},{"name":"eu/S2","powerHz":2e9,"region":"eu"}],
		"bus":{"speedBps":1e9,"propDelay":5e-5}}`))
	f.Add([]byte(`{"name":"geo2","servers":[
		{"name":"eu/S1","powerHz":1e9,"region":"eu"},{"name":"us/S1","powerHz":1e9,"region":"us"}],
		"links":[{"a":0,"b":1,"speedBps":5e7,"propDelay":0.03}]}`))
	f.Add([]byte(`{"name":"geo3","servers":[
		{"name":"a","powerHz":1e9,"region":"eu"},
		{"name":"b","powerHz":1e9,"region":"us"},
		{"name":"c","powerHz":1e9}],
		"links":[{"a":0,"b":1,"speedBps":5e7,"propDelay":0.03},
		{"a":1,"b":2,"speedBps":1e9,"propDelay":5e-5}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{}`))
	for _, seed := range jsonBehaviourSeeds {
		f.Add([]byte(strings.NewReplacer(`"nodes"`, `"servers"`, `"edges"`, `"links"`,
			`"kind"`, `"region"`, `"cycles"`, `"powerHz"`, `"from"`, `"a"`, `"to"`, `"b"`,
			`"sizeBits"`, `"speedBps"`, `"weight"`, `"propDelay"`).Replace(seed)))
	}
	f.Add([]byte(`{"name":"b","servers":[{"name":"S1","powerHz":1e9}],"bus":{"speedBps":1e8},"bus":{"propDelay":0.5}}`))
	f.Add([]byte(`{"name":"b","servers":[{"name":"S1","powerHz":1e9}],"bus":{"speedBps":1e8},"bus":null,"bus":{"propDelay":0.5}}`))
	f.Add([]byte(`{"name":"b","servers":[{"name":"S1","powerHz":1e9}],"BUS":{"SPEEDBPS":1e8,"propdelay":-0}}`))
	f.Add([]byte(`{"name":"b","servers":[{"name":"S1","powerHz":1e9}],"bus":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, err := checkNetworkAgainstOracle(t, data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := EncodeNetwork(&buf, n); err != nil {
			t.Fatalf("accepted network unencodable: %v", err)
		}
		n2, err := DecodeNetwork(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("encoded output undecodable: %v\n%s", err, buf.String())
		}
		if n2.N() != n.N() || len(n2.Links) != len(n.Links) {
			t.Fatalf("round trip changed shape: %d/%d servers, %d/%d links", n.N(), n2.N(), len(n.Links), len(n2.Links))
		}
		for i := range n.Servers {
			if n2.Servers[i].Name != n.Servers[i].Name {
				t.Fatalf("round trip renamed server %d: %q -> %q", i, n.Servers[i].Name, n2.Servers[i].Name)
			}
			if n2.Servers[i].Region != n.Servers[i].Region {
				t.Fatalf("round trip relabeled server %d: region %q -> %q", i, n.Servers[i].Region, n2.Servers[i].Region)
			}
		}
	})
}
