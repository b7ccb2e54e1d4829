package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"aiacc/internal/leakcheck"
	"aiacc/internal/sendpool"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/chaos"
)

// priorityParam is one gradient of the skewed test profile: name, element
// count and forward layer index (the scheduling priority).
type priorityParam struct {
	name  string
	elems int
	layer int
}

// skewedProfile mimics a CTR-style model: one huge layer-0 embedding table
// that finishes backward last, plus small dense layers above it. Exactly the
// shape where priority scheduling matters — the embedding monopolizes the
// wire while every dense layer's gradient is needed sooner.
func skewedProfile() []priorityParam {
	return []priorityParam{
		{"embed.weight", 48 << 10, 0},
		{"dense1.weight", 1 << 10, 1},
		{"dense1.bias", 64, 1},
		{"dense2.weight", 512, 2},
		{"dense2.bias", 32, 2},
		{"head.weight", 128, 3},
	}
}

// runPriorityEngines runs fn on one engine per rank, all registered with the
// given prioritized profile, and tears everything down.
func runPriorityEngines(t *testing.T, size int, cfg Config, params []priorityParam,
	opts []transport.MemOption, fn func(e *Engine) error) {
	t.Helper()
	net, err := transport.NewMem(size, cfg.RequiredStreams(), opts...)
	if err != nil {
		t.Fatalf("NewMem: %v", err)
	}
	defer func() { _ = net.Close() }()

	engines := make([]*Engine, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatalf("Endpoint(%d): %v", r, err)
		}
		eng, err := NewEngine(mpi.NewWorld(ep), cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		for _, p := range params {
			if err := eng.RegisterWithPriority(p.name, p.elems, p.layer); err != nil {
				t.Fatalf("RegisterWithPriority: %v", err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
		engines[r] = eng
	}
	defer func() {
		for _, e := range engines {
			_ = e.Close()
		}
	}()

	var wg sync.WaitGroup
	errc := make(chan error, size)
	for _, e := range engines {
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if err := fn(e); err != nil {
				errc <- fmt.Errorf("rank %d: %w", e.Rank(), err)
			}
		}(e)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// priorityGrads builds rank- and iteration-dependent gradients whose values
// exercise fp32 non-associativity (sums of sines do not commute bit-exactly
// under reassociation).
func priorityGrads(rank, iter int, params []priorityParam) map[string]*tensor.Tensor {
	grads := make(map[string]*tensor.Tensor, len(params))
	for _, p := range params {
		g := tensor.New(p.elems)
		for i := 0; i < p.elems; i++ {
			g.Set(i, float32(math.Sin(float64(rank+1)*0.7+float64(i)*1.3+float64(iter)*0.11)))
		}
		grads[p.name] = g
	}
	return grads
}

// runPriorityRounds pushes iters iterations of the profile — backward order
// (deepest layer first, embedding last) or forward order — and returns every
// reduced value keyed by "iter/name".
func runPriorityRounds(t *testing.T, cfg Config, params []priorityParam, iters int, backward bool) map[string][]float32 {
	t.Helper()
	var mu sync.Mutex
	out := make(map[string][]float32)
	runPriorityEngines(t, 2, cfg, params, nil, func(e *Engine) error {
		for iter := 0; iter < iters; iter++ {
			grads := priorityGrads(e.Rank(), iter, params)
			for k := range params {
				i := k
				if backward {
					i = len(params) - 1 - k
				}
				if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
					return err
				}
			}
			if err := e.WaitIteration(); err != nil {
				return err
			}
			if e.Rank() == 0 {
				mu.Lock()
				for name, g := range grads {
					vals := make([]float32, g.Len())
					for i := range vals {
						vals[i] = g.At(i)
					}
					out[fmt.Sprintf("%d/%s", iter, name)] = vals
				}
				mu.Unlock()
			}
		}
		return nil
	})
	return out
}

// TestPrioritySchedBitIdentity pins fp32 bit identity across stream counts
// and push orders: packing is canonical (priority, id) within every round and
// each stream runs its units in submission order, so the stream count and the
// order gradients are produced in change only dispatch timing. Every cell
// must reproduce the streams=1 backward-order result exactly.
func TestPrioritySchedBitIdentity(t *testing.T) {
	params := skewedProfile()
	base := DefaultConfig()
	base.GranularityBytes = 32 << 10 // many units per round
	base.SegmentBytes = 4 << 10      // many wire segments per unit
	base.MinSyncBytes = 1            // sync eagerly: several rounds per iteration

	const iters = 3
	ref := base
	ref.Streams = 1
	want := runPriorityRounds(t, ref, params, iters, true)

	for _, streams := range []int{1, 2, 4} {
		for _, backward := range []bool{true, false} {
			cfg := base
			cfg.Streams = streams
			got := runPriorityRounds(t, cfg, params, iters, backward)
			cell := fmt.Sprintf("streams=%d backward=%v", streams, backward)
			if len(got) != len(want) {
				t.Fatalf("%s: %d reduced tensors, want %d", cell, len(got), len(want))
			}
			for key, w := range want {
				g, ok := got[key]
				if !ok {
					t.Fatalf("%s: missing %s", cell, key)
				}
				for i := range w {
					if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
						t.Fatalf("%s: %s[%d] = %x, want %x — result not bit-identical to streams=1",
							cell, key, i, math.Float32bits(g[i]), math.Float32bits(w[i]))
					}
				}
			}
		}
	}
}

// bertLikeParams is the uniform profile of the live priority experiment:
// eight equal transformer-block gradients, one per forward layer.
func bertLikeParams() []priorityParam {
	params := make([]priorityParam, 8)
	for l := range params {
		params[l] = priorityParam{fmt.Sprintf("block%d.weight", l), 96 << 10, l}
	}
	return params
}

// TestCrossRankDispatchNoHang runs two ranks through the interleaving that
// once hung the engine across ranks: the uniform bert-like profile pushed in
// backward order with short gaps, eager agreement rounds (MinSyncBytes=1)
// and a slow modelled link, so several rounds' units queue behind in-flight
// transfers on every stream. Dispatch is a pure function of the agreed
// rounds — every rank submits the same units in the same order to the same
// streams — so the ranks cannot wait on each other's queued units. Each
// stream count must finish within the bound and reproduce the streams=1
// reduced bits exactly.
func TestCrossRankDispatchNoHang(t *testing.T) {
	params := bertLikeParams()
	link := []transport.MemOption{transport.WithModeledLink(netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.8,
		SingleStreamEff: 0.5,
		MaxUtilization:  0.96,
		BaseLatency:     50 * time.Microsecond,
	})}
	const iters = 20

	// run returns rank 0's per-(iteration, gradient) FNV-1a digest of the
	// reduced bits; storing every value would cost ~60 MB per arm.
	run := func(streams int) []uint64 {
		cfg := DefaultConfig()
		cfg.Streams = streams
		cfg.GranularityBytes = 256 << 10
		cfg.SegmentBytes = 32 << 10
		cfg.MinSyncBytes = 1
		digests := make([]uint64, iters*len(params))
		done := make(chan struct{})
		go func() {
			defer close(done)
			runPriorityEngines(t, 2, cfg, params, link, func(e *Engine) error {
				tmpl := priorityGrads(e.Rank(), 0, params)
				grads := make([]*tensor.Tensor, len(params))
				for i, p := range params {
					grads[i] = tensor.New(p.elems)
				}
				for iter := 0; iter < iters; iter++ {
					for i, p := range params {
						src, dst := tmpl[p.name].Data(), grads[i].Data()
						for k := range dst {
							dst[k] = src[k] + float32(iter)
						}
					}
					for i := len(params) - 1; i >= 0; i-- { // backward: last layer first
						if err := e.PushGradient(params[i].name, grads[i]); err != nil {
							return err
						}
						time.Sleep(500 * time.Microsecond)
					}
					if err := e.WaitIteration(); err != nil {
						return err
					}
					if e.Rank() == 0 {
						for i, g := range grads {
							digests[iter*len(params)+i] = bitsDigest(g.Data())
						}
					}
				}
				return nil
			})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("streams=%d: hang — WaitIteration never returned\n%s", streams, buf[:n])
		}
		return digests
	}

	want := run(1)
	got := run(2)
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("streams=2: iteration %d %s digest %x, want %x — not bit-identical to streams=1",
				k/len(params), params[k%len(params)].name, got[k], want[k])
		}
	}
}

// bitsDigest is an FNV-1a hash over the exact fp32 bit patterns.
func bitsDigest(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= uint64(math.Float32bits(x))
		h *= 1099511628211
	}
	return h
}

// TestChaosSoakPriorityKill kills a rank while the survivors have
// prioritized units in flight on both streams (the slow link and eager sync
// keep several queued behind each transfer). Survivors must unwind with
// classified failures through every queued and running unit, and leak
// neither goroutines nor pooled buffers.
func TestChaosSoakPriorityKill(t *testing.T) {
	// Warm the sendpool so its persistent senders land in the leakcheck
	// baseline: this test can run more concurrent pipelines than the fixed
	// slack covers, and pooled-idle senders after teardown are by design, not
	// a leak.
	warmPipes := make([]*sendpool.Pipe, 16)
	warmAsyncs := make([]*sendpool.Async, 8)
	for i := range warmPipes {
		warmPipes[i] = sendpool.AcquirePipe()
	}
	for i := range warmAsyncs {
		warmAsyncs[i] = sendpool.Acquire()
	}
	for _, p := range warmPipes {
		sendpool.ReleasePipe(p)
	}
	for _, a := range warmAsyncs {
		sendpool.Release(a)
	}

	base := leakcheck.Take()
	params := skewedProfile()
	cfg := DefaultConfig()
	cfg.Streams = 2
	cfg.GranularityBytes = 64 << 10
	cfg.SegmentBytes = 4 << 10
	cfg.MinSyncBytes = 1
	const (
		size   = 3
		victim = 2
	)
	inner, err := transport.NewMem(size, cfg.RequiredStreams(),
		transport.WithMemOpTimeout(2*time.Second), transport.WithBuffer(4),
		transport.WithModeledLink(netmodel.Link{
			Kind:            netmodel.TCP,
			CapacityGbps:    0.8,
			SingleStreamEff: 0.5,
			MaxUtilization:  0.96,
			BaseLatency:     50 * time.Microsecond,
		}))
	if err != nil {
		t.Fatal(err)
	}
	net := chaos.Wrap(inner, chaos.NewPlan(47)) // no planned faults; we kill explicitly
	defer func() { _ = net.Close() }()

	engines := make([]*Engine, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(mpi.NewWorld(ep), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range params {
			if err := eng.RegisterWithPriority(p.name, p.elems, p.layer); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Start(); err != nil {
			t.Fatal(err)
		}
		engines[r] = eng
	}

	// Every rank (victim included) pushes a full backward pass; the victim
	// dies while transfers are pacing over the slow link, so survivors are
	// blocked in lane receives or queued behind them when the wire dies.
	var wg sync.WaitGroup
	results := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			e := engines[r]
			grads := priorityGrads(r, 0, params)
			for i := len(params) - 1; i >= 0; i-- {
				if err := e.PushGradient(params[i].name, grads[params[i].name]); err != nil {
					results[r] = err
					return
				}
			}
			results[r] = e.WaitIteration()
		}(r)
	}
	time.Sleep(30 * time.Millisecond) // let transfers start pacing
	net.Kill(victim)

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		t.Fatalf("survivors hung after rank %d died\n%s", victim, buf[:n])
	}

	for r := 0; r < size; r++ {
		if r == victim {
			continue
		}
		if err := results[r]; err != nil &&
			!transport.IsCommFailure(err) && !errors.Is(err, chaos.ErrKilled) && !errors.Is(err, ErrClosed) {
			t.Errorf("rank %d: unclassified failure: %v", r, err)
		}
	}

	for _, e := range engines {
		_ = e.Close()
	}
	_ = net.Close()
	if err := base.Goroutines(10 * time.Second); err != nil {
		t.Error(err)
	}
	if err := base.Buffers(10 * time.Second); err != nil {
		t.Error(err)
	}
}
