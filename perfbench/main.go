// Command perfbench is the repository's benchmark: live training-iteration
// throughput and latency of the AIACC engine on four workloads, each loading
// one layer, plus a traced pass that splits an iteration into per-layer
// timings. It drives the program only through its public API and checks
// every reduced result bit for bit. See README.md for the workloads, the
// metrics and how to read the trace.
//
//	go run . --workload ctr-4k-tensors --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"aiacc/internal/leakcheck"
	"aiacc/internal/sendpool"
	"aiacc/tensor"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics of the untraced run, reported for every workload.
var endToEnd = []metricDef{
	{"samples_per_s", "samples/s"},
	{"iter_p50_ms", "ms"},
	{"iter_tail_ms", "ms"},
	{"setup_s", "s"},
	{"allocs_per_iter", "count"},
	{"mem_peak_mb", "MiB"},
	{"scaling_eff", "ratio"},
}

// perLayer are the metrics of the traced run, reported for every workload.
var perLayer = []metricDef{
	{"engine.push_us_p50", "us"},
	{"engine.wait_ms_p50", "ms"},
	{"engine.overlap_ratio", "ratio"},
	{"engine.sync_rounds_per_iter", "count"},
	{"engine.units_per_iter", "count"},
	{"gradsync.agree_us_p50", "us"},
	{"packing.pack_us_p50", "us"},
	{"packing.allocs_per_pack", "count"},
	{"collective.allreduce_ms_p50", "ms"},
	{"collective.busbw_mb_s", "MB/s"},
	{"compress.encode_ms_per_iter", "ms"},
	{"compress.decode_ms_per_iter", "ms"},
	{"compress.encode_calls_per_iter", "count"},
	{"compress.wire_ratio", "ratio"},
	{"transport.send_ms_per_iter", "ms"},
	{"transport.recv_wait_ms_per_iter", "ms"},
	{"transport.frames_per_iter", "count"},
	{"transport.bytes_per_iter", "bytes"},
	{"transport.errors", "count"},
	{"train.compute_ms_p50", "ms"},
	{"optimizer.step_ms_p50", "ms"},
	{"train.comm_ms_p50", "ms"},
	{"setup.network_ms", "ms"},
	{"setup.engine_ms", "ms"},
	{"setup.broadcast_ms", "ms"},
	{"process.gc_cycles_per_iter", "count"},
	{"process.gc_pause_ms_per_iter", "ms"},
	{"trace.overhead_pct", "%"},
}

// A run sets its cluster up at least minSetups times and keeps going, up to
// maxSetups, while the builds so far took less than setupBudget; setup_s is
// the median. Fast set-ups get more repetitions, which steadies the median
// of a figure only milliseconds long.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 1500 * time.Millisecond
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome accumulates one workload's correctness account and metrics.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	notes             []string
}

// check records one run-level correctness check.
func (o *outcome) check(ok bool, what string) {
	o.attempted++
	if !ok {
		o.failed++
		o.notes = append(o.notes, "FAILED: "+what)
	}
}

func (o *outcome) fail(err error) {
	o.failed++
	o.attempted++
	o.notes = append(o.notes, "FAILED: "+err.Error())
}

func (o *outcome) addRun(r runResult) {
	o.attempted += r.attempted
	o.failed += r.failed
	for _, err := range r.errs {
		o.notes = append(o.notes, "FAILED: "+err.Error())
	}
	if r.failed > len(r.errs) {
		o.notes = append(o.notes, fmt.Sprintf("FAILED: %d iterations returned results that differ from the exact expected mean", r.failed-len(r.errs)))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(mainRun())
}

func mainRun() int {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per workload")
		traced   = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		traceOut = flag.String("trace-out", ".perfbench_out", "directory for the traced run's Chrome trace")
	)
	flag.Parse()
	var run []spec
	if *workload == "all" {
		run = specs
	} else if s, ok := specByName(*workload); ok {
		run = []spec{s}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Every run ends on its own well inside this limit; a wedged one must
	// still exit non-zero rather than hang.
	limit := time.Duration(float64(len(run))*(*seconds*3+60)) * time.Second
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: exceeded %v, aborting\n", limit)
		os.Exit(3)
	})

	warmPools()

	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s os=%s/%s seed=%d seconds=%g trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH,
		*seed, *seconds, *traced)
	out := result{Correct: true, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if *traced == 1 {
		defs = perLayer
	}
	window := time.Duration(*seconds * float64(time.Second))
	for _, s := range run {
		var o outcome
		if *traced == 1 {
			o = measureLayers(s, uint64(*seed), window, *traceOut)
		} else {
			o = measureEndToEnd(s, uint64(*seed), window)
		}
		for _, d := range defs {
			v, ok := o.values[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				o.fail(fmt.Errorf("%s not measured", d.name))
				v = 0
			}
			o.values[d.name] = v
			key := d.name
			if len(run) > 1 {
				key = s.name + "/" + d.name
			}
			out.Metrics[key] = metricValue{Value: v, Unit: d.unit}
		}
		fmt.Printf("%s (%d ranks): fail_ratio %g (%d failed of %d attempted)\n",
			s.name, s.ranks, ratio(o.failed, o.attempted), o.failed, o.attempted)
		for _, n := range o.notes {
			fmt.Printf("  %s\n", n)
		}
		for _, d := range defs {
			fmt.Printf("  %-34s %14.6g %s\n", d.name, o.values[d.name], d.unit)
		}
		out.Attempted += o.attempted
		out.Failed += o.failed
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// inputs generates a workload's inputs for a world of ranks ranks.
func inputs(s spec, ranks int, seed uint64) (*zooInputs, *mlpInputs, error) {
	if s.zoo == nil {
		return nil, makeMLPInputs(ranks, seed), nil
	}
	zin, err := makeZooInputs(s.zoo(), s.divisor, ranks, seed)
	return zin, nil, err
}

// setUp builds the cluster (once, or repeatedly within the set-up budget),
// tearing down all but the last build, and returns the last with every
// build's set-up times. A collection before each build keeps the previous
// build's garbage out of the next one's timing.
func setUp(s spec, ranks int, repeat bool, seed uint64, tr *tracer, o *outcome) (*cluster, []setupTimes, error) {
	zin, mlpIn, err := inputs(s, ranks, seed)
	if err != nil {
		return nil, nil, err
	}
	var (
		times []setupTimes
		spent time.Duration
	)
	for {
		runtime.GC()
		c, err := build(s, zin, mlpIn, ranks, seed, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, c.setup)
		spent += c.setup.total()
		o.check(c.broadcastOK(), "initial broadcast left ranks with different parameters")
		n := len(times)
		if !repeat || n >= maxSetups || (n >= minSetups && spent >= setupBudget) {
			return c, times, nil
		}
		c.close()
	}
}

// finish runs the end-of-run checks on a cluster and closes it.
func finish(c *cluster, o *outcome) {
	if c.mlps != nil {
		o.check(c.paramsEqual(), "ranks' MLP parameters differ after training")
		if l := c.mlps[0].losses; len(l) > 0 {
			at := min(len(l), 30)
			o.note("loss@step%d %.9g, final loss %.9g at step %d (rank 0, %d ranks)", at, l[at-1], l[len(l)-1], len(l), c.ranks)
		}
	}
	c.close()
}

// warmPools brings the process-lifetime worker pools to their steady state
// before any leak-check baseline is taken: the tensor kernel workers start
// on first use, and sendpool parks up to a fixed number of idle senders and
// pipes for reuse. Parked pool goroutines are not leaks; anything above
// them after a workload is torn down is.
func warmPools() {
	tensor.CopyParallel(make([]float32, 1), make([]float32, 1))
	const parked = 256 // sendpool's idle cap
	as := make([]*sendpool.Async, parked)
	ps := make([]*sendpool.Pipe, parked)
	for i := range as {
		as[i], ps[i] = sendpool.Acquire(), sendpool.AcquirePipe()
	}
	for i := range as {
		sendpool.Release(as[i])
		sendpool.ReleasePipe(ps[i])
	}
}

// leakCheck asserts pool and goroutine balance against a snapshot taken
// before the workload built anything.
func leakCheck(snap leakcheck.Snapshot, o *outcome) {
	if err := snap.Goroutines(5 * time.Second); err != nil {
		fmt.Fprintln(os.Stderr, err)
		o.check(false, "goroutine leak: "+firstLine(err.Error()))
	} else {
		o.check(true, "")
	}
	if err := snap.Buffers(5 * time.Second); err != nil {
		o.check(false, "pooled buffer leak: "+err.Error())
	} else {
		o.check(true, "")
	}
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// measureEndToEnd is the untraced run: set up repeatedly, then time the
// workload's world interleaved with a one-rank run of the same task, for
// scaling efficiency.
func measureEndToEnd(s spec, seed uint64, window time.Duration) outcome {
	o := outcome{values: map[string]float64{}}
	snap := leakcheck.Take()
	c, times, err := setUp(s, s.ranks, true, seed, nil, &o)
	if err != nil {
		o.fail(fmt.Errorf("set-up: %w", err))
		return o
	}
	c1, _, err := setUp(s, 1, false, seed, nil, &o)
	if err != nil {
		c.close()
		o.fail(fmt.Errorf("one-rank set-up: %w", err))
		return o
	}
	rs := interleave([]*cluster{c, c1}, []time.Duration{window * 4 / 5, window / 5})
	res, res1 := rs[0], rs[1]
	finish(c, &o)
	finish(c1, &o)
	o.addRun(res)
	o.addRun(res1)
	leakCheck(snap, &o)

	var setup []float64
	for _, t := range times {
		setup = append(setup, t.total().Seconds())
	}
	o.values["setup_s"] = quantile(setup, 0.5)
	n := len(res.timed)
	if n == 0 || len(res1.timed) == 0 {
		return o
	}
	iters := make([]float64, n)
	for i, st := range res.timed {
		iters[i] = msOf(st.iter)
	}
	tail := tailPercentile(n, s.tailPct)
	sps := float64(n*s.ranks*s.batch()) / res.wall.Seconds()
	sps1 := float64(len(res1.timed)*s.batch()) / res1.wall.Seconds()
	o.values["samples_per_s"] = sps
	o.values["iter_p50_ms"] = quantile(iters, 0.5)
	o.values["iter_tail_ms"] = quantile(iters, tail/100)
	o.values["allocs_per_iter"] = float64(res.proc.mallocs) / float64(n)
	o.values["mem_peak_mb"] = res.memPeakMB
	o.values["scaling_eff"] = sps / (float64(s.ranks) * sps1)
	o.note("iterations timed %d (%d ranks) and %d (1 rank); iter_tail_ms is p%g", n, s.ranks, len(res1.timed), tail)
	return o
}

// measureLayers is the traced run: an unwrapped build, the baseline for the
// tracing overhead, and a build with every seam wrapped are timed in turn;
// then the isolated layer probes run.
func measureLayers(s spec, seed uint64, window time.Duration, traceDir string) outcome {
	o := outcome{values: map[string]float64{}}
	snap := leakcheck.Take()
	c0, _, err := setUp(s, s.ranks, false, seed, nil, &o)
	if err != nil {
		o.fail(fmt.Errorf("set-up: %w", err))
		return o
	}
	tr := newTracer(s.ranks)
	c, times, err := setUp(s, s.ranks, true, seed, tr, &o)
	if err != nil {
		c0.close()
		o.fail(fmt.Errorf("traced set-up: %w", err))
		return o
	}
	rs := interleave([]*cluster{c0, c}, []time.Duration{window * 7 / 20, window * 9 / 20})
	res0, res := rs[0], rs[1]
	sh := c.shapes()
	want := int64(res.attempted * s.ranks * len(sh.names))
	o.check(tr.completed() == want, fmt.Sprintf(
		"OnGradient fired %d times, want one per tensor, rank and iteration (%d)", tr.completed(), want))
	finish(c0, &o)
	finish(c, &o)
	o.addRun(res0)
	o.addRun(res)

	pr, err := runProbes(s, sh, s.ranks, window/5)
	if err != nil {
		o.fail(err)
	}
	leakCheck(snap, &o)

	if err := writeTrace(tr, traceDir, s.name); err != nil {
		o.fail(err)
	}

	n := len(res.timed)
	if n == 0 || len(res0.timed) == 0 {
		return o
	}
	per := func(x float64) float64 { return x / float64(n) }
	var iters, base0, compute, opt, comm, wait, overlap []float64
	for _, st := range res.timed {
		iters = append(iters, msOf(st.iter))
		compute = append(compute, msOf(st.compute))
		opt = append(opt, msOf(st.opt))
		comm = append(comm, msOf(st.comm))
		wait = append(wait, msOf(st.wait))
		overlap = append(overlap, 1-float64(st.wait)/float64(st.iter))
	}
	for _, st := range res0.timed {
		base0 = append(base0, msOf(st.iter))
	}
	v := o.values
	v["engine.push_us_p50"] = quantile(ms(res.push), 0.5) * 1000
	v["engine.wait_ms_p50"] = quantile(wait, 0.5)
	v["engine.overlap_ratio"] = quantile(overlap, 0.5)
	v["engine.sync_rounds_per_iter"] = per(float64(res.stats.SyncRounds))
	v["engine.units_per_iter"] = per(float64(res.stats.Units))
	v["gradsync.agree_us_p50"] = pr.agreeUs
	v["packing.pack_us_p50"] = pr.packUs
	v["packing.allocs_per_pack"] = pr.allocsPerPack
	v["collective.allreduce_ms_p50"] = pr.allreduceMs
	v["collective.busbw_mb_s"] = pr.busbwMBs
	v["compress.encode_ms_per_iter"] = per(float64(res.enc.ns) / 1e6)
	v["compress.decode_ms_per_iter"] = per(float64(res.dec.ns) / 1e6)
	v["compress.encode_calls_per_iter"] = per(float64(res.enc.calls))
	v["compress.wire_ratio"] = float64(res.enc.bytes) / float64(4*max(1, res.encElems))
	v["transport.send_ms_per_iter"] = per(float64(res.send.ns) / 1e6)
	v["transport.recv_wait_ms_per_iter"] = per(float64(res.recv.ns) / 1e6)
	v["transport.frames_per_iter"] = per(float64(res.send.calls))
	v["transport.bytes_per_iter"] = per(float64(res.send.bytes))
	v["transport.errors"] = float64(tr.tErrors.Load())
	v["train.compute_ms_p50"] = quantile(compute, 0.5)
	v["optimizer.step_ms_p50"] = quantile(opt, 0.5)
	if s.zoo != nil {
		v["optimizer.step_ms_p50"] = pr.optMs
	}
	v["train.comm_ms_p50"] = quantile(comm, 0.5)
	var nw, en, bc []float64
	for _, t := range times {
		nw = append(nw, msOf(t.network))
		en = append(en, msOf(t.engine))
		bc = append(bc, msOf(t.broadcast))
	}
	v["setup.network_ms"] = quantile(nw, 0.5)
	v["setup.engine_ms"] = quantile(en, 0.5)
	v["setup.broadcast_ms"] = quantile(bc, 0.5)
	v["process.gc_cycles_per_iter"] = per(float64(res.proc.numGC))
	v["process.gc_pause_ms_per_iter"] = per(float64(res.proc.pauseNs) / 1e6)
	p50, p50base := quantile(iters, 0.5), quantile(base0, 0.5)
	v["trace.overhead_pct"] = (p50 - p50base) / p50base * 100
	o.note("iterations timed %d traced, %d untraced; traced iter_p50_ms %.4g, untraced %.4g", n, len(res0.timed), p50, p50base)
	if s.zoo != nil {
		o.note("optimizer.step_ms_p50 is an isolated SGD-momentum step over the workload's tensors")
	}
	return o
}

// writeTrace exports the traced run's spans as a Chrome trace.
func writeTrace(tr *tracer, dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	if err := tr.rec.Export(f); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	fmt.Printf("trace: %s (%d spans kept, %d older dropped; open in chrome://tracing or ui.perfetto.dev)\n",
		path, tr.rec.Len(), tr.rec.Dropped())
	return nil
}
