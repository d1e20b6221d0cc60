// Package wfio serializes workflows, networks and mappings to JSON (for
// the CLI tools, interchange and the journal) and to Graphviz DOT (for
// visual inspection). The JSON schema is stable and documented on the
// spec types; the codec is hand-written and reproduces encoding/json on
// it byte for byte (see json.go).
package wfio

import (
	"fmt"
	"io"
	"strconv"

	"wsdeploy/internal/deploy"
	"wsdeploy/internal/network"
	"wsdeploy/internal/workflow"
)

// WorkflowSpec is the JSON form of a workflow.
type WorkflowSpec struct {
	Name  string     `json:"name"`
	Nodes []NodeSpec `json:"nodes"`
	Edges []EdgeSpec `json:"edges"`
}

// NodeSpec is the JSON form of one operation. Kind is the paper's
// notation: "OP", "AND", "OR", "XOR", "/AND", "/OR", "/XOR".
type NodeSpec struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"`
	Cycles float64 `json:"cycles"`
}

// EdgeSpec is the JSON form of one message. From and To index into the
// nodes array. Weight defaults to 1 when omitted.
type EdgeSpec struct {
	From     int     `json:"from"`
	To       int     `json:"to"`
	SizeBits float64 `json:"sizeBits"`
	Weight   float64 `json:"weight,omitempty"`
}

// kindNames maps JSON kind strings to workflow kinds.
var kindNames = map[string]workflow.Kind{
	"OP":   workflow.Operational,
	"AND":  workflow.AndSplit,
	"OR":   workflow.OrSplit,
	"XOR":  workflow.XorSplit,
	"/AND": workflow.AndJoin,
	"/OR":  workflow.OrJoin,
	"/XOR": workflow.XorJoin,
}

// kindStrings lists the keys of kindNames; decoding a node reuses them
// instead of allocating its kind.
var kindStrings = func() []string {
	var ks []string
	for k := range kindNames {
		ks = append(ks, k)
	}
	return ks
}()

// EncodeWorkflow writes w as indented JSON.
func EncodeWorkflow(out io.Writer, w *workflow.Workflow) error {
	b, err := AppendWorkflow(nil, w)
	if err != nil {
		return err
	}
	_, err = out.Write(appendIndent(make([]byte, 0, 2*len(b)), b))
	return err
}

// AppendWorkflow appends w's WorkflowSpec to dst as compact JSON, the
// bytes json.Marshal produces for it. Journal records and snapshots
// embed this form.
func AppendWorkflow(dst []byte, w *workflow.Workflow) ([]byte, error) {
	var err error
	dst = append(dst, `{"name":`...)
	dst = AppendString(dst, w.Name)
	dst = append(dst, `,"nodes":`...)
	if len(w.Nodes) == 0 {
		dst = append(dst, "null"...)
	}
	for i, nd := range w.Nodes {
		dst = append(dst, listSep(i)...)
		dst = append(dst, `{"name":`...)
		dst = AppendString(dst, nd.Name)
		dst = append(dst, `,"kind":`...)
		dst = AppendString(dst, nd.Kind.String())
		dst = append(dst, `,"cycles":`...)
		if dst, err = appendFloat(dst, nd.Cycles); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	if len(w.Nodes) > 0 {
		dst = append(dst, ']')
	}
	dst = append(dst, `,"edges":`...)
	if len(w.Edges) == 0 {
		dst = append(dst, "null"...)
	}
	for i, e := range w.Edges {
		dst = append(dst, listSep(i)...)
		dst = append(dst, `{"from":`...)
		dst = strconv.AppendInt(dst, int64(e.From), 10)
		dst = append(dst, `,"to":`...)
		dst = strconv.AppendInt(dst, int64(e.To), 10)
		dst = append(dst, `,"sizeBits":`...)
		if dst, err = appendFloat(dst, e.SizeBits); err != nil {
			return dst, err
		}
		if e.Weight != 0 {
			dst = append(dst, `,"weight":`...)
			if dst, err = appendFloat(dst, e.Weight); err != nil {
				return dst, err
			}
		}
		dst = append(dst, '}')
	}
	if len(w.Edges) > 0 {
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// listSep opens a JSON array before its first element and separates the
// ones after it.
func listSep(i int) string {
	if i == 0 {
		return "["
	}
	return ","
}

// DecodeWorkflow reads a WorkflowSpec and builds the validated workflow.
// It reads in to its end; only the first JSON value counts.
func DecodeWorkflow(in io.Reader) (*workflow.Workflow, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("wfio: decoding workflow: %w", err)
	}
	return UnmarshalWorkflow(data)
}

// UnmarshalWorkflow builds the validated workflow a WorkflowSpec in data
// describes.
func UnmarshalWorkflow(data []byte) (*workflow.Workflow, error) {
	spec, err := decodeWorkflowSpec(data)
	if err != nil {
		return nil, fmt.Errorf("wfio: decoding workflow: %w", err)
	}
	nodes := make([]workflow.Node, len(spec.Nodes))
	for i, ns := range spec.Nodes {
		kind, ok := kindNames[ns.Kind]
		if !ok {
			return nil, fmt.Errorf("wfio: node %d (%s) has unknown kind %q", i, ns.Name, ns.Kind)
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

var (
	workflowFields = newFieldSet("name", "nodes", "edges")
	nodeFields     = newFieldSet("name", "kind", "cycles")
	edgeFields     = newFieldSet("from", "to", "sizeBits", "weight")
)

func decodeWorkflowSpec(data []byte) (spec WorkflowSpec, err error) {
	d := &decoder{data: data}
	node := func(ns *NodeSpec) error {
		return d.structure(nodeFields, func(field int) error {
			switch field {
			case 0:
				return d.str(&ns.Name)
			case 1:
				return d.str(&ns.Kind, kindStrings...)
			}
			return d.float(&ns.Cycles)
		})
	}
	edge := func(es *EdgeSpec) error {
		return d.structure(edgeFields, func(field int) error {
			switch field {
			case 0:
				return d.int(&es.From)
			case 1:
				return d.int(&es.To)
			case 2:
				return d.float(&es.SizeBits)
			}
			return d.float(&es.Weight)
		})
	}
	err = d.structure(workflowFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&spec.Name)
		case 1:
			return array(d, &spec.Nodes, node)
		}
		return array(d, &spec.Edges, edge)
	})
	return spec, err
}

// NetworkSpec is the JSON form of a server network.
type NetworkSpec struct {
	Name    string       `json:"name"`
	Servers []ServerSpec `json:"servers"`
	// Links lists explicit links; for a pure bus, set Bus instead and
	// leave Links empty.
	Links []LinkSpec `json:"links,omitempty"`
	Bus   *BusSpec   `json:"bus,omitempty"`
}

// ServerSpec is the JSON form of one server. Region carries the
// multi-region label of network.Server (empty on single-site networks)
// and round-trips losslessly through both the bus and explicit-links
// encodings.
type ServerSpec struct {
	Name    string  `json:"name"`
	PowerHz float64 `json:"powerHz"`
	Region  string  `json:"region,omitempty"`
}

// LinkSpec is the JSON form of one link.
type LinkSpec struct {
	A         int     `json:"a"`
	B         int     `json:"b"`
	SpeedBps  float64 `json:"speedBps"`
	PropDelay float64 `json:"propDelay,omitempty"`
}

// BusSpec pins every pair of servers to the same speed and delay.
type BusSpec struct {
	SpeedBps  float64 `json:"speedBps"`
	PropDelay float64 `json:"propDelay,omitempty"`
}

// EncodeNetwork writes n as indented JSON, preserving a bus as a BusSpec.
func EncodeNetwork(out io.Writer, n *network.Network) error {
	b, err := AppendNetwork(nil, n)
	if err != nil {
		return err
	}
	_, err = out.Write(appendIndent(make([]byte, 0, 2*len(b)), b))
	return err
}

// AppendNetwork appends n's NetworkSpec to dst as compact JSON, the bytes
// json.Marshal produces for it; a bus is written as a BusSpec.
func AppendNetwork(dst []byte, n *network.Network) ([]byte, error) {
	var err error
	dst = append(dst, `{"name":`...)
	dst = AppendString(dst, n.Name)
	dst = append(dst, `,"servers":`...)
	if len(n.Servers) == 0 {
		dst = append(dst, "null"...)
	}
	for i, s := range n.Servers {
		dst = append(dst, listSep(i)...)
		dst = append(dst, `{"name":`...)
		dst = AppendString(dst, s.Name)
		dst = append(dst, `,"powerHz":`...)
		if dst, err = appendFloat(dst, s.PowerHz); err != nil {
			return dst, err
		}
		if s.Region != "" {
			dst = append(dst, `,"region":`...)
			dst = AppendString(dst, s.Region)
		}
		dst = append(dst, '}')
	}
	if len(n.Servers) > 0 {
		dst = append(dst, ']')
	}
	switch {
	case len(n.Links) == 0:
	case n.Topology() == network.Bus:
		dst = append(dst, `,"bus":{"speedBps":`...)
		if dst, err = appendSpeedDelay(dst, n.Links[0].SpeedBps, n.Links[0].PropDelay); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	default:
		dst = append(dst, `,"links":`...)
		for i, l := range n.Links {
			dst = append(dst, listSep(i)...)
			dst = append(dst, `{"a":`...)
			dst = strconv.AppendInt(dst, int64(l.A), 10)
			dst = append(dst, `,"b":`...)
			dst = strconv.AppendInt(dst, int64(l.B), 10)
			dst = append(dst, `,"speedBps":`...)
			if dst, err = appendSpeedDelay(dst, l.SpeedBps, l.PropDelay); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendSpeedDelay appends a link speed and, unless zero, its
// "propDelay" — the tail LinkSpec and BusSpec share.
func appendSpeedDelay(dst []byte, speedBps, propDelay float64) ([]byte, error) {
	dst, err := appendFloat(dst, speedBps)
	if err != nil || propDelay == 0 {
		return dst, err
	}
	dst = append(dst, `,"propDelay":`...)
	return appendFloat(dst, propDelay)
}

// DecodeNetwork reads a NetworkSpec and builds the validated network.
// It reads in to its end; only the first JSON value counts.
func DecodeNetwork(in io.Reader) (*network.Network, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("wfio: decoding network: %w", err)
	}
	return UnmarshalNetwork(data)
}

// UnmarshalNetwork builds the validated network a NetworkSpec in data
// describes.
func UnmarshalNetwork(data []byte) (*network.Network, error) {
	spec, err := decodeNetworkSpec(data)
	if err != nil {
		return nil, fmt.Errorf("wfio: decoding network: %w", err)
	}
	if spec.Bus != nil {
		if len(spec.Links) > 0 {
			return nil, fmt.Errorf("wfio: network %q sets both bus and explicit links", spec.Name)
		}
		powers := make([]float64, len(spec.Servers))
		for i, s := range spec.Servers {
			powers[i] = s.PowerHz
		}
		n, err := network.NewBus(spec.Name, powers, spec.Bus.SpeedBps, spec.Bus.PropDelay)
		if err != nil {
			return nil, err
		}
		// Keep the spec's server names and region labels verbatim — even
		// empty ones, which the explicit-links path also preserves. A
		// fleet that scaled or failed servers carries non-default names
		// ("joined", "S5"), and the encode/decode round-trip must not
		// renumber or relabel any server: crash recovery relies on
		// snapshot → restore being lossless.
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

var (
	networkFields = newFieldSet("name", "servers", "links", "bus")
	serverFields  = newFieldSet("name", "powerHz", "region")
	linkFields    = newFieldSet("a", "b", "speedBps", "propDelay")
	busFields     = newFieldSet("speedBps", "propDelay")
)

func decodeNetworkSpec(data []byte) (spec NetworkSpec, err error) {
	d := &decoder{data: data}
	server := func(ss *ServerSpec) error {
		return d.structure(serverFields, func(field int) error {
			switch field {
			case 0:
				return d.str(&ss.Name)
			case 1:
				return d.float(&ss.PowerHz)
			}
			return d.str(&ss.Region)
		})
	}
	link := func(ls *LinkSpec) error {
		return d.structure(linkFields, func(field int) error {
			switch field {
			case 0:
				return d.int(&ls.A)
			case 1:
				return d.int(&ls.B)
			case 2:
				return d.float(&ls.SpeedBps)
			}
			return d.float(&ls.PropDelay)
		})
	}
	err = d.structure(networkFields, func(field int) error {
		switch field {
		case 0:
			return d.str(&spec.Name)
		case 1:
			return array(d, &spec.Servers, server)
		case 2:
			return array(d, &spec.Links, link)
		}
		// Like any pointer field: null resets it, an object decodes into
		// the BusSpec an earlier "bus" key left, or a new one.
		switch d.peek() {
		case 'n':
			spec.Bus = nil
			return d.null()
		case '{':
		default:
			return d.unexpected("an object")
		}
		if spec.Bus == nil {
			spec.Bus = new(BusSpec)
		}
		bus := spec.Bus
		return d.object(busFields, func(field int) error {
			if field == 0 {
				return d.float(&bus.SpeedBps)
			}
			return d.float(&bus.PropDelay)
		})
	})
	return spec, err
}

// MappingSpec is the JSON form of a deployment mapping.
type MappingSpec struct {
	// Assignment[i] is the server index hosting operation i.
	Assignment []int `json:"assignment"`
}

// EncodeMapping writes mp as JSON.
func EncodeMapping(out io.Writer, mp deploy.Mapping) error {
	b := append([]byte(nil), `{"assignment":`...)
	if mp == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, s := range mp {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	_, err := out.Write(appendIndent(make([]byte, 0, 2*len(b)), b))
	return err
}

var mappingFields = newFieldSet("assignment")

// DecodeMapping reads a MappingSpec.
func DecodeMapping(in io.Reader) (deploy.Mapping, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, fmt.Errorf("wfio: decoding mapping: %w", err)
	}
	var spec MappingSpec
	d := &decoder{data: data}
	if err := d.structure(mappingFields, func(int) error { return array(d, &spec.Assignment, d.int) }); err != nil {
		return nil, fmt.Errorf("wfio: decoding mapping: %w", err)
	}
	return deploy.Mapping(spec.Assignment), nil
}
