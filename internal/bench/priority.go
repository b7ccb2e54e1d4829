package bench

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"aiacc/engine"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
)

// priorityProfile is a synthetic gradient profile for the live streams sweep:
// the shape (per-layer volume skew) is the experimental variable, the sizes
// are scaled down from the paper models to keep the bench CI-fast.
type priorityProfile struct {
	name   string
	params []model.FlatParam
	// fwdShare is the emulated per-layer forward compute of the *next*
	// iteration, used to price how much the gradient arrival order stalls it.
	fwdShare time.Duration
}

// ctrLikeProfile skews ~90% of the gradient volume into layer 0 (the
// embedding table), mirroring the paper's CTR workload: FIFO packing delivers
// that layer last, which is exactly the layer the next forward needs first.
func ctrLikeProfile() priorityProfile {
	return priorityProfile{
		name: "ctr-like (embedding-heavy)",
		params: []model.FlatParam{
			{Name: "embed.weight", Elems: 768 << 10, Layer: 0},
			{Name: "dense1.weight", Elems: 96 << 10, Layer: 1},
			{Name: "dense1.bias", Elems: 1 << 10, Layer: 1},
			{Name: "dense2.weight", Elems: 64 << 10, Layer: 2},
			{Name: "dense2.bias", Elems: 512, Layer: 2},
			{Name: "head.weight", Elems: 32 << 10, Layer: 3},
		},
		fwdShare: time.Millisecond,
	}
}

// bertLikeProfile spreads the same order of volume evenly across its layers
// (transformer blocks): no layer dominates, so packing order should matter
// little here — this is the control arm.
func bertLikeProfile() priorityProfile {
	p := priorityProfile{name: "bert-like (uniform)", fwdShare: 500 * time.Microsecond}
	for l := 0; l < 8; l++ {
		p.params = append(p.params, model.FlatParam{
			Name: fmt.Sprintf("block%d.weight", l), Elems: 96 << 10, Layer: l,
		})
	}
	return p
}

// PrioritySweep measures what reverse-topological packing delivers at each
// stream count: real engines over the in-process transport with a
// rate-modelled slow link, gradients pushed in backward (reverse-layer)
// order, Streams ∈ {1, 2, 4, 8}. The headline metric is the emulated
// next-forward stall: a DAG walk where forward layer l starts only after
// layers 0..l-1 ran and layer l's gradient arrived. The simulator's
// Result.CriticalPath prices the same schedule. Each cell is the minimum of
// three runs.
func (s *Suite) PrioritySweep() (Table, error) {
	t := Table{
		ID:     "priority",
		Title:  "Live streams sweep under reverse-topological packing (2 workers, modelled 0.8 Gbps link): next-forward stall",
		Header: []string{"profile", "streams", "grad volume", "ms/iter", "next-fwd stall ms"},
		Notes: []string{
			"stall = emulated next-forward DAG delay beyond pure compute, from per-layer arrival timestamps",
			"every cell packs each round in (priority, id) order and dispatches round-robin to the stream pool;",
			"only the number of in-flight units varies (min of 3 runs per cell)",
		},
	}
	for _, profile := range []priorityProfile{ctrLikeProfile(), bertLikeProfile()} {
		var bytes int64
		for _, p := range profile.params {
			bytes += int64(p.Elems) * 4
		}
		for _, streams := range []int{1, 2, 4, 8} {
			best := priorityResult{perIter: math.MaxInt64, stall: math.MaxInt64}
			for rep := 0; rep < 3; rep++ {
				r, err := runPriorityVariant(profile, streams)
				if err != nil {
					return t, fmt.Errorf("priority %s streams=%d: %w", profile.name, streams, err)
				}
				best.perIter = min(best.perIter, r.perIter)
				best.stall = min(best.stall, r.stall)
			}
			t.Rows = append(t.Rows, []string{
				profile.name, strconv.Itoa(streams), fmtBytesI(bytes),
				fmt.Sprintf("%.1f", best.perIter.Seconds()*1e3),
				fmt.Sprintf("%.2f", best.stall.Seconds()*1e3),
			})
		}
	}
	return t, nil
}

// priorityResult carries one variant's measurements.
type priorityResult struct {
	perIter time.Duration
	stall   time.Duration
}

// runPriorityVariant measures one (profile, streams) cell. Rank 0 records
// each gradient's completion timestamp (Config.OnGradient) to price the
// emulated next forward.
func runPriorityVariant(profile priorityProfile, streams int) (priorityResult, error) {
	const workers, iters = 2, 4
	cfg := engine.DefaultConfig()
	cfg.Streams = streams
	cfg.GranularityBytes = 256 << 10
	cfg.SegmentBytes = 32 << 10
	cfg.MinSyncBytes = 1

	link := netmodel.Link{
		Kind:            netmodel.TCP,
		CapacityGbps:    0.8,
		SingleStreamEff: 0.5,
		MaxUtilization:  0.96,
		BaseLatency:     50 * time.Microsecond,
	}
	net, err := transport.NewMem(workers, cfg.RequiredStreams(), transport.WithModeledLink(link))
	if err != nil {
		return priorityResult{}, err
	}
	defer func() { _ = net.Close() }()

	// Per-iteration arrival bookkeeping on rank 0.
	layers := 0
	layerOf := make(map[string]int, len(profile.params))
	for _, p := range profile.params {
		layerOf[p.Name] = p.Layer
		if p.Layer+1 > layers {
			layers = p.Layer + 1
		}
	}
	var arriveMu sync.Mutex
	var iterStart time.Time
	layerDone := make([]time.Duration, layers)
	var stallSum time.Duration

	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for r := 0; r < workers; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return priorityResult{}, err
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			ecfg := cfg
			if r == 0 {
				ecfg.OnGradient = func(name string) {
					arriveMu.Lock()
					l := layerOf[name]
					if d := time.Since(iterStart); d > layerDone[l] {
						layerDone[l] = d
					}
					arriveMu.Unlock()
				}
			}
			eng, err := engine.NewEngine(mpi.NewWorld(ep), ecfg)
			if err != nil {
				errc <- err
				return
			}
			defer func() { _ = eng.Close() }()
			for _, p := range profile.params {
				if err := eng.RegisterWithPriority(p.Name, p.Elems, p.Layer); err != nil {
					errc <- err
					return
				}
			}
			if err := eng.Start(); err != nil {
				errc <- err
				return
			}
			grads := make([]*tensor.Tensor, len(profile.params))
			for i, p := range profile.params {
				grads[i] = tensor.Filled(float32(r+1)*0.25, p.Elems)
			}
			for it := 0; it < iters; it++ {
				if r == 0 {
					arriveMu.Lock()
					iterStart = time.Now()
					for l := range layerDone {
						layerDone[l] = 0
					}
					arriveMu.Unlock()
				}
				// Backward order: last layer's gradient is produced first.
				for i := len(profile.params) - 1; i >= 0; i-- {
					if err := eng.PushGradient(profile.params[i].Name, grads[i]); err != nil {
						errc <- err
						return
					}
				}
				if err := eng.WaitIteration(); err != nil {
					errc <- err
					return
				}
				if r == 0 {
					arriveMu.Lock()
					stallSum += forwardStall(layerDone, profile.fwdShare)
					arriveMu.Unlock()
				}
			}
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return priorityResult{}, err
	}

	return priorityResult{
		perIter: time.Since(start) / iters,
		stall:   stallSum / iters,
	}, nil
}

// forwardStall prices the emulated next forward pass against the per-layer
// gradient arrival times: layer l starts at max(previous layers done, its
// gradient arrived) and runs for fwdShare. The return value is how far the
// forward finished past the pure-compute schedule — the communication stall
// the priority order is supposed to shrink.
func forwardStall(layerDone []time.Duration, fwdShare time.Duration) time.Duration {
	var t time.Duration
	for _, done := range layerDone {
		if done > t {
			t = done
		}
		t += fwdShare
	}
	return t - time.Duration(len(layerDone))*fwdShare
}

func fmtBytesI(v int64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.0fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}
