package main

// Timing wrappers for the program's public seams. The traced run routes every
// call through them; the untraced run never builds them, so the end-to-end
// metrics measure the unwrapped program. Each wrapper forwards the optional
// capabilities the program type-asserts on its dependencies, so a wrapped run
// takes the same code paths as an unwrapped one:
//
//   - timedEndpoint forwards transport.Aborter, which the collectives'
//     abort flood uses through transport.Abort;
//   - timedCodec forwards Lossless(), which the ring all-gather checks
//     before it self-requantizes lossy payloads;
//   - timedEngine forwards RegisterWithPriority and Broadcast, which
//     train.Trainer uses for priorities and the initial parameter sync.

import (
	"strconv"
	"sync/atomic"
	"time"

	"aiacc/compress"
	"aiacc/engine"
	"aiacc/optimizer"
	"aiacc/tensor"
	"aiacc/trace"
	"aiacc/train"
	"aiacc/transport"
)

// Trace lanes: each rank owns laneStride thread ids in the Chrome trace.
const (
	laneIter = iota
	laneEngine
	laneCompute
	laneOptimizer
	laneCodec
	laneSend = 10 // + stream
	laneRecv = 30 // + stream

	laneStride = 100
)

// counter accumulates the busy time, calls and bytes of one seam across all
// ranks.
type counter struct {
	ns, calls, bytes atomic.Int64
}

func (c *counter) add(d time.Duration, bytes int) {
	c.ns.Add(int64(d))
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
}

type counterSnap struct{ ns, calls, bytes int64 }

func (c *counter) snap() counterSnap {
	return counterSnap{c.ns.Load(), c.calls.Load(), c.bytes.Load()}
}

func (a counterSnap) sub(b counterSnap) counterSnap {
	return counterSnap{a.ns - b.ns, a.calls - b.calls, a.bytes - b.bytes}
}

// tracer holds the traced run's shared accumulators and its span store.
// Every wrapped call is timed; spans are kept for every spanEvery-th
// iteration, so the store holds whole iterations at a recording cost the
// control-plane workload can bear. Every span carries its layer (category),
// rank (thread id) and the rank's current iteration id, which every span of
// that iteration shares.
type tracer struct {
	rec      *trace.Recorder
	iter     []atomic.Int64           // current iteration per rank
	iterName []atomic.Pointer[string] // its decimal form, for span arguments

	send, recv  counter // transport.Endpoint (bytes: payload sent)
	tErrors     atomic.Int64
	enc, dec    counter // compress.Codec (bytes: encoded wire bytes)
	encElems    atomic.Int64
	completions []paddedCount // engine.Config.OnGradient calls per rank
}

// paddedCount is a per-rank counter on its own cache line, so ranks that
// count concurrently do not contend.
type paddedCount struct {
	n atomic.Int64
	_ [56]byte
}

const (
	// maxSpans bounds the span store: the recorder keeps the most recent.
	maxSpans = 1 << 17
	// spanEvery samples the iterations whose spans are kept.
	spanEvery = 8
)

func newTracer(ranks int) *tracer {
	t := &tracer{
		rec:         trace.NewRecorder(trace.WithMaxEvents(maxSpans)),
		iter:        make([]atomic.Int64, ranks),
		iterName:    make([]atomic.Pointer[string], ranks),
		completions: make([]paddedCount, ranks),
	}
	for r := range t.iterName {
		t.setIter(r, 0)
	}
	return t
}

// completed sums the OnGradient calls of every rank.
func (t *tracer) completed() int64 {
	var n int64
	for i := range t.completions {
		n += t.completions[i].n.Load()
	}
	return n
}

// setIter marks the start of iteration it on rank r.
func (t *tracer) setIter(r, it int) {
	name := strconv.Itoa(it)
	t.iterName[r].Store(&name)
	t.iter[r].Store(int64(it))
}

// begin opens a span for one call; the span is inert outside sampled
// iterations and on a nil (untraced) tracer.
func (t *tracer) begin(name, layer string, rank, lane int) trace.Span {
	if t == nil || t.iter[rank].Load()%spanEvery != 0 {
		return trace.Span{}
	}
	return t.rec.Begin(name, layer, rank*laneStride+lane)
}

// end closes a span begun for rank, tagging it with the rank's iteration.
func (t *tracer) end(s trace.Span, rank int) {
	if t != nil {
		s.Arg("iter", *t.iterName[rank].Load()).End()
	}
}

// elemsEncoded is the number of fp32 elements the codecs have encoded.
func (t *tracer) elemsEncoded() int64 {
	if t == nil {
		return 0
	}
	return t.encElems.Load()
}

type timedEndpoint struct {
	transport.Endpoint
	rank int
	tr   *tracer
}

func (e *timedEndpoint) Send(to, stream int, data []byte) error {
	n := len(data) // ownership of data passes to the transport
	sp := e.tr.begin("send", "transport", e.rank, laneSend+stream)
	start := time.Now()
	err := e.Endpoint.Send(to, stream, data)
	e.tr.send.add(time.Since(start), n)
	e.tr.end(sp, e.rank)
	if err != nil {
		e.tr.tErrors.Add(1)
	}
	return err
}

func (e *timedEndpoint) Recv(from, stream int) ([]byte, error) {
	sp := e.tr.begin("recv", "transport", e.rank, laneRecv+stream)
	start := time.Now()
	p, err := e.Endpoint.Recv(from, stream)
	e.tr.recv.add(time.Since(start), len(p))
	e.tr.end(sp, e.rank)
	if err != nil {
		e.tr.tErrors.Add(1)
	}
	return p, err
}

// Abort forwards the optional transport.Aborter capability exactly as
// transport.Abort would apply it to the unwrapped endpoint.
func (e *timedEndpoint) Abort(to, stream, origin int) error {
	return transport.Abort(e.Endpoint, to, stream, origin)
}

var _ transport.Aborter = (*timedEndpoint)(nil)

type timedCodec struct {
	inner compress.Codec
	rank  int
	tr    *tracer
}

func (c *timedCodec) Name() string          { return c.inner.Name() }
func (c *timedCodec) WireBytes(n int) int64 { return c.inner.WireBytes(n) }
func (c *timedCodec) Encode(src []float32) []byte {
	sp := c.tr.begin("encode", "compress", c.rank, laneCodec)
	start := time.Now()
	out := c.inner.Encode(src)
	c.observeEncode(time.Since(start), len(src), len(out))
	c.tr.end(sp, c.rank)
	return out
}

func (c *timedCodec) EncodeTo(dst []byte, src []float32) []byte {
	sp := c.tr.begin("encode", "compress", c.rank, laneCodec)
	start := time.Now()
	before := len(dst)
	out := c.inner.EncodeTo(dst, src)
	c.observeEncode(time.Since(start), len(src), len(out)-before)
	c.tr.end(sp, c.rank)
	return out
}

func (c *timedCodec) observeEncode(d time.Duration, elems, wire int) {
	c.tr.enc.add(d, wire)
	c.tr.encElems.Add(int64(elems))
}

func (c *timedCodec) Decode(dst []float32, buf []byte) error {
	sp := c.tr.begin("decode", "compress", c.rank, laneCodec)
	start := time.Now()
	err := c.inner.Decode(dst, buf)
	c.tr.dec.add(time.Since(start), len(buf))
	c.tr.end(sp, c.rank)
	return err
}

// Lossless forwards the optional capability with the semantics the
// collectives give it: absent means lossy.
func (c *timedCodec) Lossless() bool {
	l, ok := c.inner.(interface{ Lossless() bool })
	return ok && l.Lossless()
}

// rankTimes collects one rank's per-call durations. Only that rank's
// training goroutine appends, and readers wait for it to finish.
type rankTimes struct {
	push, wait, compute, opt []time.Duration
	broadcast                time.Duration
}

// timedEngine wraps the engine a train.Trainer drives.
type timedEngine struct {
	eng  *engine.Engine
	rank int
	tr   *tracer
	rt   *rankTimes
}

var _ train.CommEngine = (*timedEngine)(nil)

func (e *timedEngine) Register(name string, elems int) error { return e.eng.Register(name, elems) }
func (e *timedEngine) RegisterWithPriority(name string, elems, priority int) error {
	return e.eng.RegisterWithPriority(name, elems, priority)
}
func (e *timedEngine) Start() error { return e.eng.Start() }
func (e *timedEngine) Close() error { return e.eng.Close() }

func (e *timedEngine) PushGradient(name string, grad *tensor.Tensor) error {
	sp := e.tr.begin("push", "engine", e.rank, laneEngine)
	start := time.Now()
	err := e.eng.PushGradient(name, grad)
	e.rt.push = append(e.rt.push, time.Since(start))
	e.tr.end(sp, e.rank)
	return err
}

func (e *timedEngine) WaitIteration() error {
	sp := e.tr.begin("wait", "engine", e.rank, laneEngine)
	start := time.Now()
	err := e.eng.WaitIteration()
	e.rt.wait = append(e.rt.wait, time.Since(start))
	e.tr.end(sp, e.rank)
	return err
}

func (e *timedEngine) Broadcast(t *tensor.Tensor, root int) error {
	start := time.Now()
	err := e.eng.Broadcast(t, root)
	e.rt.broadcast += time.Since(start)
	return err
}

type timedProducer struct {
	inner train.Producer
	rank  int
	tr    *tracer
	rt    *rankTimes
}

func (p *timedProducer) Params() []optimizer.Param { return p.inner.Params() }

func (p *timedProducer) Compute(step int) (float64, error) {
	sp := p.tr.begin("compute", "train", p.rank, laneCompute)
	start := time.Now()
	loss, err := p.inner.Compute(step)
	p.rt.compute = append(p.rt.compute, time.Since(start))
	p.tr.end(sp, p.rank)
	return loss, err
}

type timedOptimizer struct {
	inner optimizer.Optimizer
	rank  int
	tr    *tracer
	rt    *rankTimes
}

func (o *timedOptimizer) Name() string { return o.inner.Name() }

func (o *timedOptimizer) Step(step int, params []optimizer.Param) error {
	sp := o.tr.begin("step", "optimizer", o.rank, laneOptimizer)
	start := time.Now()
	err := o.inner.Step(step, params)
	o.rt.opt = append(o.rt.opt, time.Since(start))
	o.tr.end(sp, o.rank)
	return err
}
