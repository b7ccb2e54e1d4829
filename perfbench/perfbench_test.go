package main

import (
	"encoding/json"
	"errors"
	"os"
	"sync/atomic"
	"testing"

	"aiacc/compress"
	"aiacc/transport"
)

// runTwo builds s on its world and runs exactly two iterations: a zero
// window times the first iteration and stops the loop after the next.
func runTwo(t *testing.T, s spec, seed uint64, tr *tracer) (*cluster, runResult) {
	t.Helper()
	zin, mlpIn, err := inputs(s, s.ranks, seed)
	if err != nil {
		t.Fatal(err)
	}
	c, err := build(s, zin, mlpIn, s.ranks, seed, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	if !c.broadcastOK() {
		t.Fatal("initial broadcast left ranks with different parameters")
	}
	res := c.run(0, 0)
	if len(res.errs) > 0 {
		t.Fatal(errors.Join(res.errs...))
	}
	if res.attempted != 2 {
		t.Fatalf("ran %d iterations, want 2", res.attempted)
	}
	return c, res
}

// state returns every rank's result buffers: the reduced gradients of a zoo
// workload, the trained parameters of the MLP.
func (c *cluster) state() [][]float32 {
	var out [][]float32
	for _, zr := range c.zoo {
		out = append(out, zr.flat)
	}
	for _, mr := range c.mlps {
		for _, p := range mr.mlp.Params() {
			out = append(out, p.Weight.Data())
		}
	}
	return out
}

// TestWrappedRunBitIdentical proves the traced run measures the same
// program: with every seam wrapped, each workload produces the same bits as
// without.
func TestWrappedRunBitIdentical(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			plain, pres := runTwo(t, s, 7, nil)
			wrapped, wres := runTwo(t, s, 7, newTracer(s.ranks))
			if pres.failed != 0 || wres.failed != 0 {
				t.Fatalf("correctness check failed: %d plain, %d wrapped", pres.failed, wres.failed)
			}
			a, b := plain.state(), wrapped.state()
			if len(a) != len(b) {
				t.Fatalf("%d result buffers plain, %d wrapped", len(a), len(b))
			}
			for i := range a {
				if !bitsEqual(a[i], b[i]) {
					t.Fatalf("result buffer %d differs between the plain and the wrapped run", i)
				}
			}
			if wrapped.mlps != nil && !wrapped.paramsEqual() {
				t.Fatal("wrapped MLP ranks disagree")
			}
			if wrapped.tr.send.calls.Load() == 0 || wrapped.tr.enc.calls.Load() == 0 {
				t.Fatal("wrappers saw no transport or codec calls")
			}
		})
	}
}

// flipNet flips one bit of the first data-stream payload rank 1 receives.
type flipNet struct {
	transport.Network
	dataStreams int
}

func (n flipNet) Endpoint(r int) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(r)
	if err != nil || r != 1 {
		return ep, err
	}
	return &flipEndpoint{Endpoint: ep, dataStreams: n.dataStreams}, nil
}

type flipEndpoint struct {
	transport.Endpoint
	dataStreams int
	flipped     atomic.Bool
}

func (e *flipEndpoint) Recv(from, stream int) ([]byte, error) {
	p, err := e.Endpoint.Recv(from, stream)
	if err == nil && stream < e.dataStreams && len(p) > 0 && e.flipped.CompareAndSwap(false, true) {
		p[len(p)/2] ^= 1
	}
	return p, err
}

// TestCheckCatchesFlippedBit is the negative test of the correctness check:
// one flipped bit in one received payload must fail an iteration.
func TestCheckCatchesFlippedBit(t *testing.T) {
	s, _ := specByName("ctr-4k-tensors")
	inner := s.net
	s.net = func(ranks, streams int) (transport.Network, error) {
		n, err := inner(ranks, streams)
		if err != nil {
			return nil, err
		}
		return flipNet{Network: n, dataStreams: streams - 1}, nil
	}
	_, res := runTwo(t, s, 3, nil)
	if res.failed == 0 {
		t.Fatal("a flipped payload bit went undetected")
	}
}

// TestInputsDeterministic: the same seed gives identical tensor layouts and
// values; another seed changes the values but not the layout.
func TestInputsDeterministic(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a1, m1, err := inputs(s, s.ranks, 11)
			if err != nil {
				t.Fatal(err)
			}
			a2, m2, _ := inputs(s, s.ranks, 11)
			b, mb, _ := inputs(s, s.ranks, 12)
			if s.zoo == nil {
				x1, x2, y := m1.inputs[1][0][0], m2.inputs[1][0][0], mb.inputs[1][0][0]
				if !bitsEqual(x1, x2) {
					t.Fatal("same seed, different MLP inputs")
				}
				if bitsEqual(x1, y) {
					t.Fatal("different seeds, same MLP inputs")
				}
				return
			}
			if len(a1.elems) != len(b.elems) || a1.total != b.total {
				t.Fatal("seed changed the tensor layout")
			}
			for i := range a1.elems {
				if a1.elems[i] != a2.elems[i] || a1.offsets[i] != a2.offsets[i] || a1.names[i] != a2.names[i] {
					t.Fatalf("tensor %d layout differs between equal seeds", i)
				}
			}
			for r := range a1.grads {
				for v := range a1.grads[r] {
					if !bitsEqual(a1.grads[r][v], a2.grads[r][v]) {
						t.Fatalf("rank %d variant %d: same seed, different values", r, v)
					}
					if bitsEqual(a1.grads[r][v], b.grads[r][v]) {
						t.Fatalf("rank %d variant %d: different seeds, same values", r, v)
					}
				}
			}
		})
	}
}

// TestWrappersForwardCapabilities: the codec wrapper reports Lossless like
// the codec it wraps, and the endpoint wrapper forwards aborts.
func TestWrappersForwardCapabilities(t *testing.T) {
	tr := newTracer(2)
	for _, tc := range []struct {
		codec compress.Codec
		want  bool
	}{{compress.FP32{}, true}, {compress.FP16{}, false}} {
		w := &timedCodec{inner: tc.codec, tr: tr}
		if got := w.Lossless(); got != tc.want {
			t.Errorf("%s wrapper Lossless() = %v, want %v", tc.codec.Name(), got, tc.want)
		}
	}

	net, err := transport.NewMem(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	ep0, _ := net.Endpoint(0)
	ep1, _ := net.Endpoint(1)
	var w transport.Endpoint = &timedEndpoint{Endpoint: ep0, rank: 0, tr: tr}
	if err := transport.Abort(w, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	_, err = ep1.Recv(0, 0)
	if rank, ok := transport.FailedRank(err); !ok || rank != 0 {
		t.Fatalf("peer Recv after a wrapped abort: %v, want a failure naming rank 0", err)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's workload
// and metric tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	for _, tc := range []struct {
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(tc.json) != len(tc.defs) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(tc.json), len(tc.defs))
		}
		for i, m := range tc.json {
			if m.Name != tc.defs[i].name || m.Unit != tc.defs[i].unit {
				t.Errorf("metric %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					i, m.Name, m.Unit, tc.defs[i].name, tc.defs[i].unit)
			}
		}
	}
}
