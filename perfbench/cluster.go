package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"aiacc/engine"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/perseus"
	"aiacc/tensor"
	"aiacc/train"
	"aiacc/transport"
)

// cluster is one built deployment of a workload: a network and one engine
// per rank, all ranks goroutines of this process.
type cluster struct {
	s     spec
	ranks int
	net   transport.Network
	tr    *tracer // nil: untraced
	rt    []*rankTimes

	zin   *zooInputs
	zoo   []*zooRank
	mlpIn *mlpInputs
	mlps  []*mlpRank

	setup setupTimes
}

type zooRank struct {
	sess    *perseus.Session
	flat    []float32 // gradient storage; every tensor is a view into it
	weights []float32
	params  []optimizer.Param
}

type mlpRank struct {
	eng     *engine.Engine
	trainer *train.Trainer
	mlp     *train.MLP
	losses  []float64
}

// setupTimes splits set-up wall time into its phases.
type setupTimes struct {
	network, engine, broadcast time.Duration
}

func (t setupTimes) total() time.Duration { return t.network + t.engine + t.broadcast }

// bitsEqual reports whether a and b hold identical float32 bit patterns.
func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 {
		return true
	}
	ab := unsafe.Slice((*byte)(unsafe.Pointer(&a[0])), 4*len(a))
	bb := unsafe.Slice((*byte)(unsafe.Pointer(&b[0])), 4*len(b))
	return bytes.Equal(ab, bb)
}

// parallel runs f for every rank concurrently and returns the first error.
func parallel(ranks int, f func(r int) error) error {
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = f(r)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// build sets the workload up on ranks ranks: network construction, engine
// creation, registration and start, and the initial parameter broadcast.
// With a tracer every public seam is wrapped.
func build(s spec, zin *zooInputs, mlpIn *mlpInputs, ranks int, seed uint64, tr *tracer) (*cluster, error) {
	c := &cluster{s: s, ranks: ranks, tr: tr, zin: zin, mlpIn: mlpIn, rt: make([]*rankTimes, ranks)}
	for r := range c.rt {
		c.rt[r] = &rankTimes{}
	}
	opts := c.options()
	streams, err := perseus.RequiredStreams(opts(0)...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	net, err := s.net(ranks, streams)
	if err != nil {
		return nil, fmt.Errorf("build network: %w", err)
	}
	c.net = net
	eps := make([]transport.Endpoint, ranks)
	for r := range eps {
		ep, err := net.Endpoint(r)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("endpoint %d: %w", r, err)
		}
		if tr != nil {
			ep = &timedEndpoint{Endpoint: ep, rank: r, tr: tr}
		}
		eps[r] = ep
	}
	c.setup.network = time.Since(start)
	if s.zoo == nil {
		err = c.buildMLP(eps, opts, seed)
	} else {
		err = c.buildZoo(eps, opts)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// options returns rank r's engine options: the deployment facts only, plus
// the traced run's codec wrapper and completion callback.
func (c *cluster) options() func(r int) []perseus.Option {
	return func(r int) []perseus.Option {
		codec := c.s.codec
		if c.tr != nil {
			codec = &timedCodec{inner: codec, rank: r, tr: c.tr}
		}
		opts := []perseus.Option{func(cfg *engine.Config) error {
			cfg.Codec = codec
			return nil
		}}
		if c.s.gpusPerNode > 0 {
			opts = append(opts, perseus.WithHierarchicalAllReduce(min(c.s.gpusPerNode, c.ranks)))
		}
		if tr := c.tr; tr != nil {
			cnt := &tr.completions[r].n
			opts = append(opts, perseus.WithGradientCallback(func(string) { cnt.Add(1) }))
		}
		return opts
	}
}

func (c *cluster) buildZoo(eps []transport.Endpoint, opts func(r int) []perseus.Option) error {
	in := c.zin
	c.zoo = make([]*zooRank, c.ranks)
	start := time.Now()
	err := parallel(c.ranks, func(r int) error {
		zr := &zooRank{flat: make([]float32, in.total), weights: make([]float32, in.total)}
		if r == 0 {
			copy(zr.weights, in.weights)
		}
		for i, name := range in.names {
			lo, hi := in.offsets[i], in.offsets[i]+in.elems[i]
			zr.params = append(zr.params, optimizer.Param{
				Name:   name,
				Weight: tensor.FromSlice(zr.weights[lo:hi]),
				Grad:   tensor.FromSlice(zr.flat[lo:hi]),
				Layer:  in.layers[i],
			})
		}
		sess, err := perseus.NewSession(eps[r], opts(r)...)
		if err != nil {
			return err
		}
		zr.sess = sess
		c.zoo[r] = zr
		for _, p := range zr.params {
			if err := sess.Engine().RegisterWithPriority(p.Name, p.Grad.Len(), p.Layer); err != nil {
				return err
			}
		}
		return sess.Start()
	})
	c.setup.engine = time.Since(start)
	if err != nil {
		return fmt.Errorf("engine setup: %w", err)
	}
	start = time.Now()
	err = parallel(c.ranks, func(r int) error {
		return c.zoo[r].sess.BroadcastParameters(c.zoo[r].params, 0)
	})
	c.setup.broadcast = time.Since(start)
	if err != nil {
		return fmt.Errorf("broadcast: %w", err)
	}
	return nil
}

func (c *cluster) buildMLP(eps []transport.Endpoint, opts func(r int) []perseus.Option, seed uint64) error {
	c.mlps = make([]*mlpRank, c.ranks)
	start := time.Now()
	err := parallel(c.ranks, func(r int) error {
		mr := &mlpRank{}
		c.mlps[r] = mr
		// Ranks start from different weights; the initial broadcast
		// makes them identical.
		mlp, err := train.NewMLP(int64(seed)+int64(r), c.mlpIn.sizes...)
		if err != nil {
			return err
		}
		mr.mlp = mlp
		in, tg := c.mlpIn.inputs[r], c.mlpIn.targets[r]
		var prod train.Producer
		prod, err = train.NewMLPProducer(mlp, func(step int) ([][]float32, [][]float32) {
			b := (step - 1) % mlpBatches
			return in[b], tg[b]
		})
		if err != nil {
			return err
		}
		var opt optimizer.Optimizer
		opt, err = optimizer.NewSGD(optimizer.Const(0.05), 0.9, 0)
		if err != nil {
			return err
		}
		cfg := engine.DefaultConfig()
		for _, o := range opts(r) {
			if err := o(&cfg); err != nil {
				return err
			}
		}
		eng, err := engine.NewEngine(mpi.NewWorld(eps[r]), cfg)
		if err != nil {
			return err
		}
		mr.eng = eng
		var ce train.CommEngine = eng
		if c.tr != nil {
			rt := c.rt[r]
			ce = &timedEngine{eng: eng, rank: r, tr: c.tr, rt: rt}
			prod = &timedProducer{inner: prod, rank: r, tr: c.tr, rt: rt}
			opt = &timedOptimizer{inner: opt, rank: r, tr: c.tr, rt: rt}
		}
		mr.trainer, err = train.NewTrainerWithEngine(ce, prod, opt)
		return err
	})
	total := time.Since(start)
	c.setup.broadcast = c.rt[0].broadcast
	c.setup.engine = total - c.setup.broadcast
	if err != nil {
		return fmt.Errorf("trainer setup: %w", err)
	}
	return nil
}

// close shuts every engine and the network down.
func (c *cluster) close() {
	for _, zr := range c.zoo {
		if zr != nil && zr.sess != nil {
			_ = zr.sess.Close()
		}
	}
	for _, mr := range c.mlps {
		if mr != nil && mr.eng != nil {
			_ = mr.eng.Close()
		}
	}
	if c.net != nil {
		_ = c.net.Close()
	}
}

// broadcastOK checks the initial broadcast: every rank holds rank 0's
// initial parameters bit for bit.
func (c *cluster) broadcastOK() bool {
	if c.zoo != nil {
		for _, zr := range c.zoo {
			if !bitsEqual(zr.weights, c.zin.weights) {
				return false
			}
		}
		return true
	}
	return c.paramsEqual()
}

// paramsEqual reports whether every MLP rank's parameters equal rank 0's
// bit for bit.
func (c *cluster) paramsEqual() bool {
	ref := c.mlps[0].mlp.Params()
	for _, mr := range c.mlps[1:] {
		for i, p := range mr.mlp.Params() {
			if !bitsEqual(p.Weight.Data(), ref[i].Weight.Data()) {
				return false
			}
		}
	}
	return true
}

// stepTimes is one rank's account of one iteration.
type stepTimes struct {
	start   time.Time
	iter    time.Duration // push-start to WaitIteration return (Trainer.Step for the MLP)
	compute time.Duration // gradient production outside the engine
	opt     time.Duration // optimizer step
	wait    time.Duration // WaitIteration (traced MLP runs only)
	comm    time.Duration // iteration time not spent computing or stepping
	wall    time.Duration // whole loop turn, checks excluded
	bad     bool          // failed its correctness check
}

// zooStep runs one iteration on rank r: refill the gradients (the backward
// pass's output), push each at its schedule point, wait for the reduction
// and compare the result with the exact expected mean bit for bit.
func (c *cluster) zooStep(r, it int) (stepTimes, error) {
	zr, in, tr := c.zoo[r], c.zin, c.tr
	rt := c.rt[r]
	v := it % variants
	var st stepTimes
	st.start = time.Now()
	sp := tr.begin("compute", "train", r, laneCompute)
	copy(zr.flat, in.grads[r][v])
	tr.end(sp, r)
	fill := time.Since(st.start)
	var slept time.Duration
	pushStart := time.Now()
	for _, ev := range in.sched {
		if c.s.backward > 0 {
			due := pushStart.Add(time.Duration(ev.Frac * float64(c.s.backward)))
			if d := time.Until(due); d > 0 {
				t := time.Now()
				time.Sleep(d)
				slept += time.Since(t)
			}
		}
		p := zr.params[ev.Param]
		// Pushes are timed and traced in sampled iterations only, which
		// keeps the traced run's overhead on thousands of pushes down.
		if tr == nil || it%spanEvery != 0 {
			if err := zr.sess.PushGradient(p.Name, p.Grad); err != nil {
				return st, fmt.Errorf("push %q: %w", p.Name, err)
			}
			continue
		}
		sp := tr.begin("push", "engine", r, laneEngine)
		t := time.Now()
		err := zr.sess.PushGradient(p.Name, p.Grad)
		if r == 0 {
			rt.push = append(rt.push, time.Since(t))
		}
		tr.end(sp, r)
		if err != nil {
			return st, fmt.Errorf("push %q: %w", p.Name, err)
		}
	}
	sp = tr.begin("wait", "engine", r, laneEngine)
	t := time.Now()
	err := zr.sess.WaitIteration()
	end := time.Now()
	tr.end(sp, r)
	st.wait = end.Sub(t)
	if err != nil {
		return st, fmt.Errorf("wait: %w", err)
	}
	st.iter = end.Sub(pushStart)
	st.compute = fill + slept
	st.comm = st.iter - slept
	st.wall = end.Sub(st.start)
	st.bad = !bitsEqual(zr.flat, in.want[v])
	return st, nil
}

// mlpStep runs one real training step on rank r.
func (c *cluster) mlpStep(r, it int) (stepTimes, error) {
	mr := c.mlps[r]
	rt := c.rt[r]
	nc, no, nw := len(rt.compute), len(rt.opt), len(rt.wait)
	var st stepTimes
	st.start = time.Now()
	res, err := mr.trainer.Step()
	st.iter = time.Since(st.start)
	st.wall = st.iter
	if err != nil {
		return st, err
	}
	if len(rt.compute) > nc {
		st.compute = rt.compute[nc]
	}
	if len(rt.opt) > no {
		st.opt = rt.opt[no]
	}
	if len(rt.wait) > nw {
		st.wait = rt.wait[nw]
	}
	st.comm = st.iter - st.compute - st.opt
	if r == 0 {
		mr.losses = append(mr.losses, res.Loss)
	}
	st.bad = math.IsNaN(res.Loss) || math.IsInf(res.Loss, 0)
	return st, nil
}

// runResult is what one timed window measured.
type runResult struct {
	attempted, failed int
	errs              []error
	timed             []stepTimes     // rank 0's timed iterations
	push              []time.Duration // rank 0's timed PushGradient calls
	wall              time.Duration
	proc              procStats // deltas over the timed window
	memPeakMB         float64
	stats             engine.Stats // rank 0's engine counter deltas (SyncRounds, Units)
	send, recv        counterSnap
	enc, dec          counterSnap
	encElems          int64
}

// add merges a later window's results into r.
func (r *runResult) add(o runResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.errs = append(r.errs, o.errs...)
	r.timed = append(r.timed, o.timed...)
	r.push = append(r.push, o.push...)
	r.wall += o.wall
	r.proc.mallocs += o.proc.mallocs
	r.proc.numGC += o.proc.numGC
	r.proc.pauseNs += o.proc.pauseNs
	r.memPeakMB = max(r.memPeakMB, o.memPeakMB)
	r.stats.SyncRounds += o.stats.SyncRounds
	r.stats.Units += o.stats.Units
	for _, p := range []struct{ dst, src *counterSnap }{{&r.send, &o.send}, {&r.recv, &o.recv}, {&r.enc, &o.enc}, {&r.dec, &o.dec}} {
		p.dst.ns += p.src.ns
		p.dst.calls += p.src.calls
		p.dst.bytes += p.src.bytes
	}
	r.encElems += o.encElems
}

// rounds is how many windows interleave reads per cluster.
const rounds = 4

// interleave times the clusters in turn, rounds times over, cluster i for
// windows[i]/rounds each time, and merges each cluster's windows. Clusters
// measured side by side this way see the same drift in host speed, so
// ratios between them (scaling efficiency, tracing overhead) are steadier
// than from back-to-back windows.
func interleave(cs []*cluster, windows []time.Duration) []runResult {
	out := make([]runResult, len(cs))
	for i := 0; i < rounds; i++ {
		for j, c := range cs {
			w := windows[j] / rounds
			out[j].add(c.run(warmFor(w), w))
			if len(out[j].errs) > 0 {
				return out
			}
		}
	}
	return out
}

// warmFor is the untimed warm-up before a window: pools fill, lazily
// started workers spin up and the first GC cycles pass.
func warmFor(window time.Duration) time.Duration {
	return min(time.Second, window/10)
}

// run drives every rank's closed training loop: a rank starts iteration k+1
// only after its WaitIteration for k returned. Iterations that start within
// warm of the loop start are warm-up; the timed window then runs for window
// on rank 0, which afterwards tells every rank to stop after one more
// iteration (no rank can be further ahead, since iteration k+1 cannot
// complete without rank 0's gradients).
func (c *cluster) run(warm, window time.Duration) runResult {
	step := c.zooStep
	if c.zoo == nil {
		step = c.mlpStep
	}
	var (
		res      runResult
		mu       sync.Mutex
		failedIt = map[int]bool{}
		stopAt   atomic.Int64
		abortOne sync.Once
		wg       sync.WaitGroup
		p0       procStats
		st0      engine.Stats
		snap0    [4]counterSnap
		enc0     int64
		push0    int
		mem      *memSampler
	)
	stopAt.Store(math.MaxInt64)
	// Start from a collected heap, so set-up garbage does not land in the
	// window's peak heap or GC figures.
	runtime.GC()
	abort := func() { abortOne.Do(func() { _ = c.net.Close() }) }
	// A wedged run must not outlive the benchmark's time limit.
	watchdog := time.AfterFunc(warm+window+60*time.Second, abort)
	defer watchdog.Stop()
	loopStart := time.Now()
	var windowStart, deadline time.Time
	for r := 0; r < c.ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; int64(it) < stopAt.Load(); it++ {
				if c.tr != nil {
					c.tr.setIter(r, it)
				}
				if r == 0 && windowStart.IsZero() && time.Since(loopStart) >= warm {
					p0 = readProcStats()
					st0 = c.engineStats()
					snap0 = c.snaps()
					enc0 = c.tr.elemsEncoded()
					mem = startMemSampler()
					push0 = len(c.rt[0].push)
					windowStart = time.Now()
					deadline = windowStart.Add(window)
				}
				sp := c.tr.begin("iteration", "iteration", r, laneIter)
				st, err := step(r, it)
				c.tr.end(sp, r)
				if err != nil {
					mu.Lock()
					res.errs = append(res.errs, fmt.Errorf("rank %d iteration %d: %w", r, it, err))
					failedIt[it] = true
					mu.Unlock()
					abort()
					return
				}
				if st.bad {
					mu.Lock()
					failedIt[it] = true
					mu.Unlock()
				}
				if r != 0 {
					continue
				}
				res.attempted++
				if windowStart.IsZero() {
					continue
				}
				res.timed = append(res.timed, st)
				if time.Now().After(deadline) && stopAt.Load() == math.MaxInt64 {
					stopAt.Store(int64(it) + 2)
				}
			}
			if r == 0 && !windowStart.IsZero() {
				last := res.timed[len(res.timed)-1]
				res.wall = last.start.Add(last.wall).Sub(windowStart)
				res.memPeakMB = mem.Stop()
				p1 := readProcStats()
				res.proc = procStats{mallocs: p1.mallocs - p0.mallocs, numGC: p1.numGC - p0.numGC, pauseNs: p1.pauseNs - p0.pauseNs}
				st1 := c.engineStats()
				res.stats = engine.Stats{
					SyncRounds: st1.SyncRounds - st0.SyncRounds,
					Units:      st1.Units - st0.Units,
				}
				s1 := c.snaps()
				res.send, res.recv = s1[0].sub(snap0[0]), s1[1].sub(snap0[1])
				res.enc, res.dec = s1[2].sub(snap0[2]), s1[3].sub(snap0[3])
				res.encElems = c.tr.elemsEncoded() - enc0
				res.push = slices.Clone(c.rt[0].push[push0:])
			}
		}()
	}
	wg.Wait()
	if mem != nil && res.wall == 0 {
		mem.Stop()
	}
	res.failed = len(failedIt)
	if len(res.timed) == 0 && len(res.errs) == 0 {
		res.errs = append(res.errs, errors.New("no timed iteration completed"))
		res.failed++
	}
	return res
}

func (c *cluster) engineStats() engine.Stats {
	if c.zoo != nil {
		return c.zoo[0].sess.Stats()
	}
	return c.mlps[0].eng.Stats()
}

func (c *cluster) snaps() [4]counterSnap {
	if c.tr == nil {
		return [4]counterSnap{}
	}
	t := c.tr
	return [4]counterSnap{t.send.snap(), t.recv.snap(), t.enc.snap(), t.dec.snap()}
}
