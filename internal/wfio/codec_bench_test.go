package wfio

import (
	"encoding/json"
	"fmt"
	"testing"

	"wsdeploy/internal/gen"
	"wsdeploy/internal/network"
	"wsdeploy/internal/stats"
	"wsdeploy/internal/workflow"
)

// The codec benchmarks run each call next to the same call through
// encoding/json (the oracle the codec replaced):
//
//	go test -run '^$' -bench 'Workflow|Network' -benchmem ./internal/wfio
//
// The fixtures are the shapes the daemon moves most: a spec-churn
// workflow (20 ops), a portfolio deploy (25 ops) and the 5-server bus
// they deploy onto.

// benchOps are the fixture workflow sizes.
var benchOps = []int{20, 25}

// fixtureWorkflow is a deterministic hybrid-structure workflow of m ops.
func fixtureWorkflow(tb testing.TB, m int) (*workflow.Workflow, []byte) {
	tb.Helper()
	w, err := gen.ClassC().GraphWorkflow(stats.NewRNG(uint64(m)), m, gen.Hybrid)
	if err != nil {
		tb.Fatal(err)
	}
	data, err := AppendWorkflow(nil, w)
	if err != nil {
		tb.Fatal(err)
	}
	return w, data
}

// fixtureNetworks are the 5-server bus of the benchmark workloads and a
// 5-server line, which encodes its links explicitly.
func fixtureNetworks(tb testing.TB) map[string][]byte {
	tb.Helper()
	bus, err := gen.ClassC().BusNetworkWithSpeed(stats.NewRNG(20070415), 5, 100*gen.Mbps)
	if err != nil {
		tb.Fatal(err)
	}
	line, err := gen.ClassC().LineNetwork(stats.NewRNG(20070415), 5)
	if err != nil {
		tb.Fatal(err)
	}
	out := map[string][]byte{}
	for name, n := range map[string]*network.Network{"bus5": bus, "line5": line} {
		data, err := AppendNetwork(nil, n)
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = data
	}
	return out
}

func BenchmarkDecodeWorkflow(b *testing.B) {
	for _, m := range benchOps {
		_, data := fixtureWorkflow(b, m)
		for _, impl := range []struct {
			name   string
			decode func([]byte) (*workflow.Workflow, error)
		}{{"codec", UnmarshalWorkflow}, {"encoding-json", oracleWorkflow}} {
			b.Run(fmt.Sprintf("ops=%d/%s", m, impl.name), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for range b.N {
					if _, err := impl.decode(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkEncodeWorkflow(b *testing.B) {
	for _, m := range benchOps {
		w, data := fixtureWorkflow(b, m)
		b.Run(fmt.Sprintf("ops=%d/codec", m), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for range b.N {
				if _, err := AppendWorkflow(nil, w); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ops=%d/encoding-json", m), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for range b.N {
				if _, err := json.Marshal(workflowSpecOf(w)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeNetwork(b *testing.B) {
	for name, data := range fixtureNetworks(b) {
		for _, impl := range []struct {
			name   string
			decode func([]byte) (*network.Network, error)
		}{{"codec", UnmarshalNetwork}, {"encoding-json", oracleNetwork}} {
			b.Run(name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for range b.N {
					if _, err := impl.decode(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// decodeWorkflowAllocs bounds the objects the codec allocates to decode
// the 20-op fixture: the spec, its strings and the slices handed to
// workflow.New. It is the count the hand-written codec landed with
// (encoding/json allocated 70). Validation inside workflow.New is
// measured apart and subtracted: its map's allocation count varies
// across Go releases, the codec's does not.
const decodeWorkflowAllocs = 35

// TestDecodeWorkflowAllocs fails if the codec's share of decoding the
// 20-op fixture grows past decodeWorkflowAllocs.
func TestDecodeWorkflowAllocs(t *testing.T) {
	w, data := fixtureWorkflow(t, 20)
	decode := testing.AllocsPerRun(100, func() {
		if _, err := UnmarshalWorkflow(data); err != nil {
			t.Fatal(err)
		}
	})
	validate := testing.AllocsPerRun(100, func() {
		if _, err := workflow.New(w.Name, w.Nodes, w.Edges); err != nil {
			t.Fatal(err)
		}
	})
	if got := decode - validate; got > decodeWorkflowAllocs {
		t.Fatalf("decoding the 20-op fixture allocates %v objects besides workflow.New's %v, want at most %d",
			got, validate, decodeWorkflowAllocs)
	}
}
