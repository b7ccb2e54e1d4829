package collective

import (
	"fmt"
	"sync"

	"aiacc/compress"
	"aiacc/internal/sendpool"
	"aiacc/mpi"
	"aiacc/tensor"
)

// DefaultSegmentBytes is the wire-pipelining segment size (in fp32 data
// bytes, like GranularityBytes) used when the caller does not set one. Large
// enough that framing overhead stays negligible, small enough that several
// segments fit in a typical multi-MiB unit so codec and reduction work hides
// behind the wire. The auto-tuner searches this dimension (autotune.Space).
const DefaultSegmentBytes = 128 << 10

// options collects per-call collective options.
type options struct {
	segBytes int64
}

// Option configures a collective operation. It is a value, not the usual
// func(*options) closure: the ring collectives are called per tensor on the
// hot path, and folding closures over &options forces a heap allocation per
// call, while values fold on the stack.
type Option struct {
	segBytes int64
}

// WithSegmentBytes sets the wire-pipelining segment size in fp32 data bytes.
// Each ring step's chunk is split into ceil(chunkBytes/segBytes) segments
// that are double-buffered on the wire; a value at or above the chunk size
// disables intra-step pipelining (one segment per step, the pre-pipelining
// wire protocol). Non-positive values are ignored.
func WithSegmentBytes(n int64) Option { return Option{segBytes: n} }

func buildOptions(opts []Option) options {
	o := options{segBytes: DefaultSegmentBytes}
	for _, op := range opts {
		if op.segBytes > 0 {
			o.segBytes = op.segBytes
		}
	}
	return o
}

// numSegments returns how many wire segments a chunk of elems fp32 elements
// is split into at segBytes data bytes per segment. Every chunk — including
// an empty one — is at least one segment, so both sides of a ring step agree
// on the frame sequence from (chunk length, segment size) alone.
func numSegments(elems int, segBytes int64) int {
	segElems := int(segBytes / 4)
	if elems <= segElems || segElems < 1 {
		return 1
	}
	return (elems + segElems - 1) / segElems
}

// lossless is an optional codec capability: Decode(Encode(x)) restores x
// bit-for-bit. Lossless codecs let the all-gather skip the self-
// requantization pass that keeps all ranks bit-identical under lossy codecs.
type lossless interface{ Lossless() bool }

func codecLossless(c compress.Codec) bool {
	l, ok := c.(lossless)
	return ok && l.Lossless()
}

// segRing bundles the send-side resources of a segment-pipelined ring
// collective: one pipelined sender (up to sendpool.PipeDepth frames in
// flight, all on one goroutine so per-(peer,stream) FIFO order is preserved)
// and a small free stack of owned wire buffers. Buffer circulation extends
// the ringOp discipline: a sent buffer's ownership transfers to the
// receiver, and every fully-consumed received payload is given back to the
// free stack as a future encode buffer — the steady-state ring circulates a
// fixed set of pool buffers and allocates nothing.
type segRing struct {
	pipe     *sendpool.Pipe
	out      int // outstanding sends (Sends minus Waits)
	nfree    int
	free     [sendpool.PipeDepth][]byte
	wireHint int
}

// beginSeg returns the ring by value so it stays on the caller's stack.
// wireHint is the expected encoded segment size, used to draw buffers from
// the right pool size class.
func beginSeg(wireHint int) segRing {
	return segRing{pipe: sendpool.AcquirePipe(), wireHint: wireHint}
}

// takeBuf returns an owned zero-length wire buffer ready for append-style
// encoding.
func (r *segRing) takeBuf() []byte {
	if r.nfree > 0 {
		r.nfree--
		b := r.free[r.nfree]
		r.free[r.nfree] = nil
		return b[:0]
	}
	return getWireCap(r.wireHint)
}

// giveBuf takes ownership of a fully-consumed received payload for reuse as
// a future encode buffer; beyond the double-buffer depth it goes back to the
// shared pool.
func (r *segRing) giveBuf(b []byte) {
	if b == nil {
		return
	}
	if r.nfree < len(r.free) {
		r.free[r.nfree] = b
		r.nfree++
		return
	}
	recycleWire(b)
}

// send dispatches one wire buffer, whose ownership transfers immediately.
// When the pipe is full it first waits for the oldest in-flight send, so the
// caller overlaps at most PipeDepth frames. On error the unsent buffer is
// reclaimed.
func (r *segRing) send(c *mpi.Comm, to, stream int, buf []byte) error {
	if r.out == sendpool.PipeDepth {
		if err := r.wait(); err != nil {
			r.giveBuf(buf)
			return err
		}
	}
	r.pipe.Send(c, to, stream, buf)
	r.out++
	return nil
}

// wait blocks for the oldest in-flight send's result.
func (r *segRing) wait() error {
	err := r.pipe.Wait()
	r.out--
	return err
}

// drain waits out every outstanding send and returns the first error.
func (r *segRing) drain() error {
	var first error
	for r.out > 0 {
		if err := r.wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// end releases the ring's resources on every exit path. A pipe abandoned
// with sends still in flight is drained in the background before pooling.
func (r *segRing) end() {
	sendpool.AbandonPipe(r.pipe, r.out)
	r.out = 0
	for i := 0; i < r.nfree; i++ {
		recycleWire(r.free[i])
		r.free[i] = nil
	}
	r.nfree = 0
}

// ringPipeline is the per-operation state of a segment-pipelined ring
// all-reduce.
type ringPipeline struct {
	c          *mpi.Comm
	stream     int
	next, prev int
	codec      compress.Codec
	segBytes   int64
	maxChunk   int // largest per-rank chunk, for slot sizing
	r          segRing
	scratch    []float32 // one segment of decode scratch
	timed      bool      // metrics enabled at op start
}

// init fills in the per-operation pipeline state for an all-reduce-shaped
// collective over dataLen elements. It is a method rather than a
// constructor so the pipeline stays a stack value on the hot path; the
// caller owns the returned scratch box (putF32) and the send ring (p.r.end).
func (p *ringPipeline) init(c *mpi.Comm, stream, dataLen int, codec compress.Codec, o options) *[]float32 {
	n := c.Size()
	rank := c.Rank()
	// Segments are cut from fp32 chunks, so wire buffers and the decode
	// scratch only need one segment's worth of capacity: chunkBounds never
	// yields a segment larger than ceil(chunk/segs) ≤ segElems elements.
	maxChunk := dataLen/n + 1
	segElems := maxChunk
	if s := int(o.segBytes / 4); s >= 1 && s < segElems {
		segElems = s
	}
	p.c, p.stream = c, stream
	p.next, p.prev = (rank+1)%n, (rank-1+n)%n
	p.codec, p.segBytes, p.maxChunk = codec, o.segBytes, maxChunk
	p.r = beginSeg(int(codec.WireBytes(segElems)))
	p.timed = segTimed()
	mSegCount.Set(int64(numSegments(maxChunk, o.segBytes)))
	fp := getF32(segElems)
	p.scratch = *fp
	return fp
}

// reduceScatter runs the n-1 reduce-scatter ring steps over data. Its
// postcondition is the phase contract the all-gather (and the two-level
// hierarchical schedule's inter phase) builds on: rank r ends holding the
// full reduction of chunk (r+1) mod n.
func (p *ringPipeline) reduceScatter(data []float32, op tensor.ReduceOp) error {
	n := p.c.Size()
	rank := p.c.Rank()
	phase := opStart()
	for step := 0; step < n-1; step++ {
		sendIdx := (rank - step + n) % n
		recvIdx := (rank - step - 1 + 2*n) % n
		sLo, sHi := chunkBounds(len(data), n, sendIdx)
		rLo, rHi := chunkBounds(len(data), n, recvIdx)
		if err := p.reduceStep(data, sLo, sHi, rLo, rHi, op); err != nil {
			return fmt.Errorf("ring all-reduce step %d: %w", step, err)
		}
	}
	obs(mPhaseRS, phase)
	return nil
}

// allGather circulates the fully reduced chunks, assuming the reduceScatter
// postcondition (rank r owns chunk (r+1) mod n). With n > 2 ranks the
// payloads received on one step are the exact frames to forward on the
// next, so two slot sets alternate between "forward now" and "fill for the
// next step". requant folds a lossy codec's quantization into the origin
// rank's local copy so all ranks finish bit-identical.
func (p *ringPipeline) allGather(data []float32, requant bool) error {
	n := p.c.Size()
	rank := p.c.Rank()
	phase := opStart()
	var slots, spare *[][]byte
	if n > 2 {
		maxSegs := numSegments(p.maxChunk, p.segBytes)
		slots, spare = getSlots(maxSegs), getSlots(maxSegs)
		defer putSlots(slots)
		defer putSlots(spare)
	}
	for step := 0; step < n-1; step++ {
		sendIdx := (rank - step + 1 + n) % n
		recvIdx := (rank - step + 2*n) % n
		sLo, sHi := chunkBounds(len(data), n, sendIdx)
		rLo, rHi := chunkBounds(len(data), n, recvIdx)
		var cur, nxt [][]byte
		if slots != nil {
			cur, nxt = *slots, *spare
		}
		if err := p.gatherStep(data, sLo, sHi, rLo, rHi, step > 0, step < n-2, requant, cur, nxt); err != nil {
			return fmt.Errorf("ring all-gather step %d: %w", step, err)
		}
		slots, spare = spare, slots
	}
	obs(mPhaseAG, phase)
	return nil
}

// recv blocks for the next payload from the upstream neighbour, charging the
// blocked time to the wire-wait counter.
func (p *ringPipeline) recv() ([]byte, error) {
	t0 := segStart(p.timed)
	payload, err := p.c.Recv(p.prev, p.stream)
	wireObs(t0)
	return payload, err
}

// encodeSend encodes segment i of the chunk into an owned buffer and hands
// it to the wire. When requant is set (lossy codec in the all-gather), the
// codec's quantization is folded back into the local copy too, so every rank
// — the chunk's origin included — ends the operation with bit-identical
// data.
func (p *ringPipeline) encodeSend(chunk []float32, segs, i int, requant bool) error {
	lo, hi := chunkBounds(len(chunk), segs, i)
	buf := p.r.takeBuf()
	t0 := segStart(p.timed)
	buf = p.codec.EncodeTo(buf, chunk[lo:hi])
	segObs(mSegEncodeNs, t0)
	mChunkBytes.Observe(int64(len(buf)))
	if requant {
		if err := p.codec.Decode(chunk[lo:hi], buf); err != nil {
			p.r.giveBuf(buf)
			return err
		}
	}
	return p.r.send(p.c, p.next, p.stream, buf)
}

// reduceStep runs one reduce-scatter ring step: the send chunk's segments
// are encoded and dispatched while the receive chunk's segments are decoded
// and reduced, double-buffered so that decode+reduce of segment i overlaps
// the wire transfer of segment i+1 and each encode overlaps the in-flight
// send. The prologue sends segment 0 before the first blocking receive — the
// standard deadlock-free ring formulation, now per segment.
func (p *ringPipeline) reduceStep(data []float32, sLo, sHi, rLo, rHi int, op tensor.ReduceOp) error {
	send := data[sLo:sHi]
	sendSegs := numSegments(len(send), p.segBytes)
	recvSegs := numSegments(rHi-rLo, p.segBytes)
	if err := p.encodeSend(send, sendSegs, 0, false); err != nil {
		return err
	}
	for i := 0; i < recvSegs; i++ {
		payload, err := p.recv()
		if err != nil {
			return err
		}
		// Hand the next segment to the wire before touching this payload:
		// the decode+reduce below then overlaps its transfer.
		if i+1 < sendSegs {
			if err := p.encodeSend(send, sendSegs, i+1, false); err != nil {
				p.r.giveBuf(payload)
				return err
			}
		}
		lo, hi := chunkBounds(rHi-rLo, recvSegs, i)
		tmp := p.scratch[:hi-lo]
		t0 := segStart(p.timed)
		if err := p.codec.Decode(tmp, payload); err != nil {
			p.r.giveBuf(payload)
			return err
		}
		segObsNext(mSegDecodeNs, &t0)
		err = op.ApplyParallel(data[rLo+lo:rLo+hi], tmp)
		segObs(mSegReduceNs, t0)
		p.r.giveBuf(payload)
		if err != nil {
			return err
		}
	}
	// Neighbouring chunks differ by at most one element, so the send chunk
	// can carry one segment more than receives; flush any remainder.
	for j := recvSegs + 1; j < sendSegs; j++ {
		if err := p.encodeSend(send, sendSegs, j, false); err != nil {
			return err
		}
	}
	return p.r.drain()
}

// gatherStep runs one all-gather ring step. On step 0 the rank encodes its
// own reduced chunk (requantizing the local copy under a lossy codec); on
// later steps it forwards the wire payloads stored on the previous step
// verbatim — no decode→re-encode on the critical path and no per-hop
// re-quantization. Received payloads are decoded into data and, except on
// the final step, parked in next for the following step's forward.
func (p *ringPipeline) gatherStep(data []float32, sLo, sHi, rLo, rHi int, forward, keep, requant bool, slots, next [][]byte) error {
	sendSegs := numSegments(sHi-sLo, p.segBytes)
	recvSegs := numSegments(rHi-rLo, p.segBytes)
	// dispatch sends segment j: the stored payload when forwarding (its
	// ownership moves back to the wire), a fresh encode of the own chunk
	// otherwise.
	dispatch := func(j int) error {
		if forward {
			buf := slots[j]
			slots[j] = nil
			return p.r.send(p.c, p.next, p.stream, buf)
		}
		return p.encodeSend(data[sLo:sHi], sendSegs, j, requant)
	}
	if err := dispatch(0); err != nil {
		return err
	}
	for i := 0; i < recvSegs; i++ {
		payload, err := p.recv()
		if err != nil {
			return err
		}
		if i+1 < sendSegs {
			if err := dispatch(i + 1); err != nil {
				p.r.giveBuf(payload)
				return err
			}
		}
		lo, hi := chunkBounds(rHi-rLo, recvSegs, i)
		t0 := segStart(p.timed)
		if err := p.codec.Decode(data[rLo+lo:rLo+hi], payload); err != nil {
			p.r.giveBuf(payload)
			return err
		}
		segObs(mSegDecodeNs, t0)
		if keep {
			next[i] = payload
		} else {
			p.r.giveBuf(payload)
		}
	}
	for j := recvSegs + 1; j < sendSegs; j++ {
		if err := dispatch(j); err != nil {
			return err
		}
	}
	return p.r.drain()
}

// slotsPool recycles the all-gather forwarding slot slices (boxed to avoid a
// per-operation slice-header allocation).
var slotsPool = sync.Pool{New: func() any { return new([][]byte) }}

// getSlots returns a boxed all-nil slot slice of length exactly n.
func getSlots(n int) *[][]byte {
	sp := slotsPool.Get().(*[][]byte)
	if cap(*sp) < n {
		*sp = make([][]byte, n)
	}
	*sp = (*sp)[:n]
	return sp
}

// putSlots recycles any payloads still parked in the slots (error paths) and
// pools the slice.
func putSlots(sp *[][]byte) {
	s := *sp
	for i := range s {
		if s[i] != nil {
			recycleWire(s[i])
			s[i] = nil
		}
	}
	slotsPool.Put(sp)
}
