package main

// Isolated probes for the layers the engine calls directly. Each calls the
// layer's public functions at the workload's shapes: the bit-vector width of
// its tensor count, its registry, its unit size, network and codec. They run
// only in the traced pass.

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"aiacc/collective"
	"aiacc/engine"
	"aiacc/internal/gradsync"
	"aiacc/internal/packing"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/tensor"
)

// probeResult holds the probes' per-layer metrics.
type probeResult struct {
	agreeUs, packUs, allocsPerPack float64
	allreduceMs, busbwMBs          float64
	optMs                          float64
}

// shapes describes the tensors a workload registers.
type shapes struct {
	names  []string
	elems  []int
	layers []int
}

func (c *cluster) shapes() shapes {
	if c.zin != nil {
		return shapes{names: c.zin.names, elems: c.zin.elems, layers: c.zin.layers}
	}
	var sh shapes
	for _, p := range c.mlps[0].mlp.Params() {
		sh.names = append(sh.names, p.Name)
		sh.elems = append(sh.elems, p.Weight.Len())
		sh.layers = append(sh.layers, p.Layer)
	}
	return sh
}

// timeReps calls f until reps calls or budget elapse, at least once, and
// returns the per-call durations.
func timeReps(reps int, budget time.Duration, f func() error) ([]time.Duration, error) {
	var ds []time.Duration
	end := time.Now().Add(budget)
	for i := 0; i < reps && (i == 0 || time.Now().Before(end)); i++ {
		t := time.Now()
		if err := f(); err != nil {
			return ds, err
		}
		ds = append(ds, time.Since(t))
	}
	return ds, nil
}

func p50ms(ds []time.Duration) float64 { return quantile(ms(ds), 0.5) }

// runProbes runs every probe within roughly budget.
func runProbes(s spec, sh shapes, ranks int, budget time.Duration) (probeResult, error) {
	var pr probeResult
	each := budget / 4
	var err error
	if pr.agreeUs, err = probeAgree(s, len(sh.names), ranks, each); err != nil {
		return pr, fmt.Errorf("gradsync probe: %w", err)
	}
	if pr.packUs, pr.allocsPerPack, err = probePack(sh, each); err != nil {
		return pr, fmt.Errorf("packing probe: %w", err)
	}
	if pr.allreduceMs, pr.busbwMBs, err = probeAllReduce(s, sh, ranks, each); err != nil {
		return pr, fmt.Errorf("collective probe: %w", err)
	}
	if pr.optMs, err = probeOptimizer(sh, each); err != nil {
		return pr, fmt.Errorf("optimizer probe: %w", err)
	}
	return pr, nil
}

// onNetwork builds a fresh network of the workload's kind and runs rounds
// of a collective probe on every rank concurrently until rank 0 has spent
// budget. prep returns a rank's round function, which reports the duration
// of the timed call; rank 0's durations come back. Rank 0 then stops every
// rank after one more round, as the training loop does.
func onNetwork(s spec, ranks int, budget time.Duration, prep func(r int, c *mpi.Comm) func(i int) (time.Duration, error)) ([]time.Duration, error) {
	net, err := s.net(ranks, 1)
	if err != nil {
		return nil, err
	}
	var (
		ds     []time.Duration
		stopAt atomic.Int64
	)
	stopAt.Store(math.MaxInt64)
	start := time.Now()
	err = parallel(ranks, func(r int) error {
		ep, err := net.Endpoint(r)
		if err != nil {
			return err
		}
		round := prep(r, mpi.NewWorld(ep))
		for i := 0; int64(i) < stopAt.Load(); i++ {
			d, err := round(i)
			if err != nil {
				_ = net.Close() // unblock the other ranks
				return err
			}
			if r == 0 {
				ds = append(ds, d)
				if time.Since(start) > budget && stopAt.Load() == math.MaxInt64 {
					stopAt.Store(int64(i) + 2)
				}
			}
		}
		return nil
	})
	if cerr := net.Close(); err == nil {
		err = cerr
	}
	return ds, err
}

// probeAgree times gradsync.Decentralized.Agree over a full bit vector of
// the workload's tensor count.
func probeAgree(s spec, n, ranks int, budget time.Duration) (float64, error) {
	ds, err := onNetwork(s, ranks, budget, func(r int, c *mpi.Comm) func(int) (time.Duration, error) {
		d := gradsync.NewDecentralized(c, 0)
		v := gradsync.NewSyncVector(n)
		return func(i int) (time.Duration, error) {
			v.Reset()
			for id := 0; id < n; id++ {
				if err := v.Set(id); err != nil {
					return 0, err
				}
			}
			t := time.Now()
			got, err := d.Agree(v)
			el := time.Since(t)
			if err == nil && !got.AllSet() {
				err = fmt.Errorf("round %d: agreed %d of %d", i, got.Count(), n)
			}
			return el, err
		}
	})
	return p50ms(ds) * 1000, err
}

// probePack times packing.Packer.Pack over the workload's whole registry at
// the default granularity, and counts its allocations.
func probePack(sh shapes, budget time.Duration) (us, allocs float64, err error) {
	reg := gradsync.NewRegistry()
	for i, name := range sh.names {
		if err := reg.RegisterWithPriority(name, sh.elems[i], sh.layers[i]); err != nil {
			return 0, 0, err
		}
	}
	grads, err := reg.Finalize()
	if err != nil {
		return 0, 0, err
	}
	ids := make([]int, len(grads))
	for i, g := range grads {
		ids[i] = g.ID
	}
	p, err := packing.NewPacker(engine.DefaultConfig().GranularityBytes)
	if err != nil {
		return 0, 0, err
	}
	pack := func() error {
		_, err := p.Pack(reg.ByID, ids, 0)
		return err
	}
	if err := pack(); err != nil { // warm
		return 0, 0, err
	}
	before := readProcStats().mallocs
	ds, err := timeReps(100000, budget, pack)
	if err != nil {
		return 0, 0, err
	}
	after := readProcStats().mallocs
	return p50ms(ds) * 1000, float64(after-before) / float64(len(ds)), nil
}

// probeAllReduce times the engine's collective on one unit as large as the
// workload's largest: the default granularity or the whole model, if
// smaller. It runs over a fresh network of the workload's kind with its
// codec and algorithm.
func probeAllReduce(s spec, sh shapes, ranks int, budget time.Duration) (msP50, busbw float64, err error) {
	total := 0
	for _, n := range sh.elems {
		total += n
	}
	elems := min(total, int(engine.DefaultConfig().GranularityBytes/4))
	seg := collective.WithSegmentBytes(engine.DefaultConfig().SegmentBytes)
	ds, err := onNetwork(s, ranks, budget, func(r int, c *mpi.Comm) func(int) (time.Duration, error) {
		data := make([]float32, elems)
		src := make([]float32, elems)
		dyadic(src, 1, uint64(r+1))
		return func(int) (time.Duration, error) {
			copy(data, src)
			t := time.Now()
			var err error
			if s.gpusPerNode > 0 {
				err = collective.HierarchicalAllReduceCodec(c, 0, min(s.gpusPerNode, ranks), data, tensor.OpSum, s.codec, seg)
			} else {
				err = collective.RingAllReduceCodec(c, 0, data, tensor.OpSum, s.codec, seg)
			}
			return time.Since(t), err
		}
	})
	if err != nil {
		return 0, 0, err
	}
	msP50 = p50ms(ds)
	n := float64(ranks)
	busbw = 2 * (n - 1) / n * float64(4*elems) / (msP50 / 1000) / 1e6
	return msP50, busbw, nil
}

// probeOptimizer times an SGD-momentum step over the workload's tensors.
func probeOptimizer(sh shapes, budget time.Duration) (float64, error) {
	opt, err := optimizer.NewSGD(optimizer.Const(0.01), 0.9, 0)
	if err != nil {
		return 0, err
	}
	params := make([]optimizer.Param, len(sh.names))
	for i, name := range sh.names {
		g := make([]float32, sh.elems[i])
		dyadic(g, 2, uint64(i))
		params[i] = optimizer.Param{Name: name, Weight: tensor.New(sh.elems[i]), Grad: tensor.FromSlice(g)}
	}
	step := 0
	ds, err := timeReps(1000, budget, func() error {
		step++
		return opt.Step(step, params)
	})
	return p50ms(ds), err
}
