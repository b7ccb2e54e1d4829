// Package collective implements the collective communication primitives that
// AIACC-Training builds gradient aggregation on: ring all-reduce
// (reduce-scatter followed by all-gather, paper Fig. 1), a hierarchical
// "tree" all-reduce (intra-node reduce, cross-node ring among node leaders,
// intra-node broadcast), all-gather, broadcast, and the bit-wise AND
// all-reduce used by the gradient synchronization vector.
//
// Every operation takes a stream id. Operations on distinct streams are fully
// independent and may run concurrently from different goroutines — this is
// the property the multi-streamed communication engine (package stream)
// exploits. Concurrent operations on the *same* stream of the same
// communicator are not allowed; the caller must serialize them, as the
// dispatcher in package stream does.
package collective

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aiacc/compress"
	"aiacc/internal/sendpool"
	"aiacc/internal/wire"
	"aiacc/mpi"
	"aiacc/tensor"
)

// ErrShortBuffer indicates a received payload did not match the expected
// size, i.e. ranks disagreed about the operation layout.
var ErrShortBuffer = errors.New("collective: payload size mismatch")

// chunkBounds returns the [lo, hi) element range of chunk i when data of
// length total is partitioned into n nearly-equal chunks.
func chunkBounds(total, n, i int) (int, int) {
	base := total / n
	rem := total % n
	lo := i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// ringOp bundles the per-operation resources of a chunked ring collective:
// one pooled sender goroutine (overlapping each send with the blocking
// receive — the standard deadlock-free formulation of a ring step) and one
// pooled wire buffer. The wire buffer is used append-style: encode into it,
// send it (ownership transfers to the receiver), then adopt the payload
// received on the same step as the next step's wire buffer. In steady state
// the ring circulates a fixed set of buffers and no step allocates.
type ringOp struct {
	async    *sendpool.Async
	inflight bool
	buf      []byte // owned wire buffer for the next encode
}

// beginRing returns the op by value so it stays on the caller's stack; a
// pointer result would heap-allocate one ringOp per collective call.
// wireHint is the expected encoded chunk size, used to draw a buffer from the
// right size class.
func beginRing(wireHint int) ringOp {
	return ringOp{async: sendpool.Acquire(), buf: getWireCap(wireHint)}
}

// send dispatches the op's current wire buffer, whose ownership transfers
// immediately; the caller must not touch it until adopt installs a new one.
func (r *ringOp) send(c *mpi.Comm, to, stream int) {
	r.async.Send(c, to, stream, r.buf)
	r.inflight = true
	r.buf = nil
}

// wait blocks for the in-flight send's result.
func (r *ringOp) wait() error {
	err := r.async.Wait()
	r.inflight = false
	return err
}

// adopt takes ownership of a fully-consumed received payload as the next
// send's encode buffer.
func (r *ringOp) adopt(payload []byte) { r.buf = payload }

// end releases the op's resources on every exit path. A sender abandoned
// with a send still in flight is drained in the background before it is
// pooled again.
func (r *ringOp) end() {
	if r.inflight {
		sendpool.Abandon(r.async)
	} else {
		sendpool.Release(r.async)
	}
	recycleWire(r.buf)
}

// RingAllReduce performs an in-place ring all-reduce of data across all
// members of c on the given stream, with fp32 wire encoding. See
// RingAllReduceCodec.
func RingAllReduce(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, opts ...Option) error {
	return RingAllReduceCodec(c, stream, data, op, compress.FP32{}, opts...)
}

// RingAllReduceCodec performs an in-place ring all-reduce of data across all
// members of c on the given stream, serializing chunks with the given codec
// (e.g. fp16 gradient compression). After it returns, every rank holds the
// element-wise reduction (op) of all ranks' inputs; the reduction itself is
// computed in fp32 after decoding. All ranks finish with bit-identical data
// even under a lossy codec (the all-gather folds the codec's quantization
// into the origin rank's local copy too).
//
// The algorithm is the bandwidth-optimal two-phase ring of Fig. 1: n-1
// reduce-scatter steps in which each rank forwards and reduces one chunk,
// followed by n-1 all-gather steps broadcasting the fully-reduced chunks.
// Each rank sends 2(n-1)/n of the data in total.
//
// Each per-step chunk is cut into wire segments of WithSegmentBytes fp32
// data bytes (DefaultSegmentBytes unless overridden) and double-buffered
// through a pipelined sender, so decode+reduce of segment i overlaps the
// transfer of segment i+1 and each encode overlaps the in-flight send. In
// the all-gather phase, received payloads are forwarded verbatim — each
// reduced chunk is encoded exactly once, by its origin rank.
func RingAllReduceCodec(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	return Unwind(c, stream, ringAllReduceCodec(c, stream, data, op, codec, opts...))
}

func ringAllReduceCodec(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	n := c.Size()
	if n == 1 || len(data) == 0 {
		return nil
	}
	o := buildOptions(opts)
	defer obsOp(mRing, opStart())
	var p ringPipeline
	fp := p.init(c, stream, len(data), codec, o)
	defer putF32(fp)
	defer p.r.end()
	if err := p.reduceScatter(data, op); err != nil {
		return err
	}
	return p.allGather(data, !codecLossless(codec))
}

// ringReduceScatter runs just the reduce-scatter phase of the pipelined
// ring as a standalone collective: rank r ends holding the full reduction
// of chunk (r+1) mod n, with the rest of data left in an intermediate
// state. It is the intra-host first phase of the two-level hierarchical
// all-reduce.
func ringReduceScatter(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	if c.Size() == 1 || len(data) == 0 {
		return nil
	}
	o := buildOptions(opts)
	var p ringPipeline
	fp := p.init(c, stream, len(data), codec, o)
	defer putF32(fp)
	defer p.r.end()
	return p.reduceScatter(data, op)
}

// ringChunkAllGather runs just the all-gather phase of the pipelined ring,
// assuming the reduce-scatter postcondition (rank r owns a fully reduced
// chunk (r+1) mod n). It is the intra-host last phase of the two-level
// hierarchical all-reduce.
func ringChunkAllGather(c *mpi.Comm, stream int, data []float32, codec compress.Codec, opts ...Option) error {
	if c.Size() == 1 || len(data) == 0 {
		return nil
	}
	o := buildOptions(opts)
	var p ringPipeline
	fp := p.init(c, stream, len(data), codec, o)
	defer putF32(fp)
	defer p.r.end()
	return p.allGather(data, !codecLossless(codec))
}

// RingAllReduceCodecReference is the serial pre-pipelining ring all-reduce:
// one wire frame per ring step, the whole chunk decoded before reduction,
// and an all-gather that decodes and re-encodes every received chunk. It is
// retained as a correctness oracle — the property tests pin the pipelined
// ring to it bit-for-bit under lossless codecs — and as the same-binary
// baseline arm of the ring benchmarks. Production callers want
// RingAllReduceCodec.
func RingAllReduceCodecReference(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
	return Unwind(c, stream, ringAllReduceCodecReference(c, stream, data, op, codec))
}

func ringAllReduceCodecReference(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
	n := c.Size()
	if n == 1 || len(data) == 0 {
		return nil
	}
	rank := c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	wireHint := int(codec.WireBytes(len(data)/n + 1))
	r := beginRing(wireHint)
	defer r.end()
	// One decode scratch of max-chunk size serves every step.
	fp := getF32(len(data)/n + 1)
	defer putF32(fp)

	for step := 0; step < n-1; step++ {
		sendIdx := (rank - step + n) % n
		recvIdx := (rank - step - 1 + 2*n) % n
		sLo, sHi := chunkBounds(len(data), n, sendIdx)
		rLo, rHi := chunkBounds(len(data), n, recvIdx)

		r.buf = codec.EncodeTo(r.buf[:0], data[sLo:sHi])
		r.send(c, next, stream)
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return fmt.Errorf("ring all-reduce recv step %d: %w", step, err)
		}
		tmp := (*fp)[:rHi-rLo]
		if err := codec.Decode(tmp, payload); err != nil {
			recycleWire(payload)
			return fmt.Errorf("ring all-reduce step %d: %w", step, err)
		}
		if err := op.ApplyParallel(data[rLo:rHi], tmp); err != nil {
			recycleWire(payload)
			return fmt.Errorf("ring all-reduce reduce step %d: %w", step, err)
		}
		if err := r.wait(); err != nil {
			recycleWire(payload)
			return fmt.Errorf("ring all-reduce send step %d: %w", step, err)
		}
		r.adopt(payload)
	}

	for step := 0; step < n-1; step++ {
		sendIdx := (rank - step + 1 + n) % n
		recvIdx := (rank - step + 2*n) % n
		sLo, sHi := chunkBounds(len(data), n, sendIdx)
		rLo, rHi := chunkBounds(len(data), n, recvIdx)

		r.buf = codec.EncodeTo(r.buf[:0], data[sLo:sHi])
		r.send(c, next, stream)
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return fmt.Errorf("ring all-gather recv step %d: %w", step, err)
		}
		if err := codec.Decode(data[rLo:rHi], payload); err != nil {
			recycleWire(payload)
			return fmt.Errorf("ring all-gather step %d: %w", step, err)
		}
		if err := r.wait(); err != nil {
			recycleWire(payload)
			return fmt.Errorf("ring all-gather send step %d: %w", step, err)
		}
		r.adopt(payload)
	}
	return nil
}

// Broadcast distributes root's data to every member of c in place, using a
// binomial tree rooted at the given rank: O(log n) rounds.
func Broadcast(c *mpi.Comm, stream, root int, data []float32) error {
	return BroadcastCodec(c, stream, root, data, compress.FP32{})
}

// BroadcastCodec is Broadcast with an explicit wire codec.
func BroadcastCodec(c *mpi.Comm, stream, root int, data []float32, codec compress.Codec) error {
	return Unwind(c, stream, broadcastCodec(c, stream, root, data, codec))
}

func broadcastCodec(c *mpi.Comm, stream, root int, data []float32, codec compress.Codec) error {
	n := c.Size()
	if n == 1 || len(data) == 0 {
		return nil
	}
	defer obsOp(mBroadcast, opStart())
	// Rotate ranks so the root is virtual rank 0, then run the classic
	// binomial tree: a rank receives from (vrank - mask) on the round where
	// its lowest set bit is reached, then forwards to (vrank + smaller
	// masks) in descending order.
	vrank := (c.Rank() - root + n) % n
	mask := 1
	for mask < n {
		if vrank&mask != 0 {
			parent := vrank ^ mask
			payload, err := c.Recv((parent+root)%n, stream)
			if err != nil {
				return fmt.Errorf("broadcast recv: %w", err)
			}
			err = codec.Decode(data, payload)
			recycleWire(payload)
			if err != nil {
				return fmt.Errorf("broadcast: %w", err)
			}
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		child := vrank + mask
		if child < n {
			// Each child gets its own buffer: the payload's ownership moves
			// to the child, which recycles it through the shared pool.
			buf := codec.EncodeTo(getWireCap(int(codec.WireBytes(len(data)))), data)
			if err := c.Send((child+root)%n, stream, buf); err != nil {
				return fmt.Errorf("broadcast send: %w", err)
			}
		}
	}
	return nil
}

// AllGather collects each rank's input and returns the concatenation ordered
// by rank. Inputs may have different lengths. Implemented as a ring pass:
// n-1 steps, each forwarding the previously received block. The returned
// blocks are owned by the caller and alias nothing.
func AllGather(c *mpi.Comm, stream int, mine []byte) ([][]byte, error) {
	out, err := allGather(c, stream, mine)
	return out, Unwind(c, stream, err)
}

func allGather(c *mpi.Comm, stream int, mine []byte) ([][]byte, error) {
	n := c.Size()
	out := make([][]byte, n)
	myCopy := make([]byte, len(mine))
	copy(myCopy, mine)
	out[c.Rank()] = myCopy
	if n == 1 {
		return out, nil
	}
	next := (c.Rank() + 1) % n
	prev := (c.Rank() - 1 + n) % n
	defer obsOp(mAllGather, opStart())

	async := sendpool.Acquire()
	inflight := false
	defer func() {
		if inflight {
			sendpool.Abandon(async)
		} else {
			sendpool.Release(async)
		}
	}()

	// The first send must be a copy: `mine` stays owned by the caller while
	// Send transfers payload ownership to the receiver.
	sendBlock := append([]byte(nil), mine...)
	for step := 0; step < n-1; step++ {
		async.Send(c, next, stream, sendBlock)
		inflight = true
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return nil, fmt.Errorf("all-gather recv step %d: %w", step, err)
		}
		if err := async.Wait(); err != nil {
			recycleWire(payload)
			return nil, fmt.Errorf("all-gather send step %d: %w", step, err)
		}
		inflight = false
		origin := (c.Rank() - step - 1 + 2*n) % n
		if step < n-2 {
			// The payload travels on; the caller keeps a private copy.
			out[origin] = append([]byte(nil), payload...)
			sendBlock = payload
		} else {
			// Final block is not forwarded: keep it without copying.
			out[origin] = payload
		}
	}
	return out, nil
}

// AndAllReduceBits performs an in-place all-reduce with bit-wise AND over a
// packed bit vector. This is the decentralized gradient-readiness agreement
// of §V-A: each worker contributes a vector with bit g set iff gradient g is
// locally ready; after the all-reduce, bit g survives iff *every* worker had
// it set (AND of 0/1 bits is the paper's min operator).
func AndAllReduceBits(c *mpi.Comm, stream int, bits []uint64) error {
	return Unwind(c, stream, andAllReduceBits(c, stream, bits))
}

func andAllReduceBits(c *mpi.Comm, stream int, bits []uint64) error {
	n := c.Size()
	if n == 1 || len(bits) == 0 {
		return nil
	}
	rank := c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	// The vector is small (one bit per gradient), so a simple ring pipeline
	// on the whole vector beats chunking. Because AND is idempotent, n-1
	// circulate-and-AND steps suffice: after step s each rank holds the AND
	// of its own and its s+1 upstream neighbours' vectors.
	//
	// Double buffering through payload adoption: the vector is encoded into
	// the op's wire buffer, the buffer is sent away (the receiver owns it),
	// and the payload received on the same step — already folded into bits —
	// becomes the next step's wire buffer. No copies, no per-step allocation.
	defer obsOp(mAndBits, opStart())
	size := 8 * len(bits)
	r := beginRing(size)
	defer r.end()
	r.buf = wire.Grow(r.buf[:0], size)
	wire.PutUint64s(r.buf, bits)
	for step := 0; step < n-1; step++ {
		r.send(c, next, stream)
		payload, err := c.Recv(prev, stream)
		if err != nil {
			return fmt.Errorf("bit all-reduce recv step %d: %w", step, err)
		}
		if len(payload) != size {
			recycleWire(payload)
			return fmt.Errorf("%w: got %d bytes, want %d", ErrShortBuffer, len(payload), size)
		}
		for i := range bits {
			bits[i] &= binary.LittleEndian.Uint64(payload[8*i:])
		}
		if err := r.wait(); err != nil {
			recycleWire(payload)
			return fmt.Errorf("bit all-reduce send step %d: %w", step, err)
		}
		r.adopt(payload)
		if step < n-2 {
			wire.PutUint64s(r.buf, bits)
		}
	}
	return nil
}

// HierarchicalAllReduce is the paper's "tree all-reduce" (§V-B), realized
// as the Megatron-style two-level schedule: an intra-node reduce-scatter, a
// concurrent per-shard ring all-reduce across nodes, and an intra-node
// all-gather. It reduces cross-node traffic to 1/gpusPerNode of a flat ring
// and is selected by the auto-tuner when inter-node links are congested.
func HierarchicalAllReduce(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, opts ...Option) error {
	return HierarchicalAllReduceCodec(c, stream, gpusPerNode, data, op, compress.FP32{}, opts...)
}

// HierarchicalAllReduceCodec is HierarchicalAllReduce with an explicit wire
// codec applied to every phase. Options (segment pipelining) apply to both
// levels — in particular the cross-node shard rings, where overlapping
// codec work with the slower inter-node wire pays off most.
//
// The schedule is two-level: each node reduce-scatters over its (fast,
// intra-host) lanes, leaving member j of every node with one fully reduced
// shard; the j-th shards then ring-all-reduce across nodes — every node
// member drives its own cross-node ring concurrently, instead of funneling
// gpusPerNode× the traffic through a single leader — and an intra-node
// all-gather distributes the result. The data is further split into two
// blocks pipelined against each other, so one block's (intra) reduce-scatter
// or all-gather overlaps the other block's (inter) cross-node ring: the two
// levels use disjoint peer sets, hence disjoint transport lanes, and on a
// two-tier network (transport.NewTwoTier) physically independent fabrics.
//
// Requires c's size to be an exact multiple of gpusPerNode (ranks laid out
// node-major, as mpi.Comm's NodeGroup assumes). Results are bit-identical
// across ranks, and — for exactly-representable sums — bit-identical to the
// single-level reference.
func HierarchicalAllReduceCodec(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	// The phases unwind within their sub-communicators; the outer unwind over
	// the full communicator is what carries a failure across phase boundaries
	// (e.g. to ranks already parked in the next phase).
	return Unwind(c, stream, hierarchicalAllReduceCodec(c, stream, gpusPerNode, data, op, codec, opts...))
}

// twoLevelPipelineMin is the smallest element count worth splitting into two
// pipelined blocks; below it the extra phase launches cost more than the
// intra/inter overlap recovers.
const twoLevelPipelineMin = 4096

func hierarchicalAllReduceCodec(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	if c.Size() == 1 || len(data) == 0 {
		return nil
	}
	if gpusPerNode <= 0 {
		return fmt.Errorf("%w: gpusPerNode %d", mpi.ErrBadGroup, gpusPerNode)
	}
	if c.Size()%gpusPerNode != 0 {
		return fmt.Errorf("%w: size %d is not divisible by gpusPerNode %d: hierarchical all-reduce needs equally sized nodes",
			mpi.ErrBadGroup, c.Size(), gpusPerNode)
	}
	defer obsOp(mHierarchical, opStart())
	if gpusPerNode == 1 {
		// Every rank is its own node: the cross-node level IS the flat ring.
		return ringAllReduceCodec(c, stream, data, op, codec, opts...)
	}
	node, err := c.NodeGroup(gpusPerNode)
	if err != nil {
		return fmt.Errorf("hierarchical all-reduce node group: %w", err)
	}
	if node.Size() == c.Size() {
		// Single node: the intra level is the whole reduction.
		return ringAllReduceCodec(node, stream, data, op, codec, opts...)
	}
	cross, err := c.CrossNodeGroup(gpusPerNode)
	if err != nil {
		return fmt.Errorf("hierarchical all-reduce cross group: %w", err)
	}
	return twoLevelAllReduce(node, cross, stream, data, op, codec, opts)
}

// twoLevelAllReduce runs the pipelined two-level schedule over the node and
// cross-node sub-communicators:
//
//	RS(b0); RS(b1) ∥ X(b0); AG(b0) ∥ X(b1); AG(b1)
//
// where RS/AG are intra-node reduce-scatter/all-gather over blocks b of the
// data and X is the cross-node ring all-reduce of the block's owned shard.
// Intra phases run on this goroutine, inter phases on one worker goroutine,
// so each tier issues its lanes' frames in deterministic order (the FIFO
// matching the transports require) while the two tiers overlap.
func twoLevelAllReduce(node, cross *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts []Option) error {
	g := node.Size()
	own := (node.Rank() + 1) % g // reduce-scatter postcondition: chunk this rank holds
	blocks := 2
	if len(data) < twoLevelPipelineMin {
		blocks = 1
	}

	// The worker pulls shard jobs in block order; results come back in the
	// same order on done. Channel capacities cover every block, so neither
	// side ever blocks on the channels themselves.
	reqs := make(chan []float32, blocks)
	done := make(chan error, blocks)
	go func() {
		for shard := range reqs {
			done <- RingAllReduceCodec(cross, stream, shard, op, codec, opts...)
		}
	}()
	issued := 0
	var firstErr error
	for b := 0; b < blocks; b++ {
		lo, hi := chunkBounds(len(data), blocks, b)
		blk := data[lo:hi]
		if err := ringReduceScatter(node, stream, blk, op, codec, opts...); err != nil {
			firstErr = fmt.Errorf("hierarchical all-reduce intra reduce-scatter block %d: %w", b, err)
			break
		}
		cLo, cHi := chunkBounds(len(blk), g, own)
		reqs <- blk[cLo:cHi]
		issued++
	}
	close(reqs)
	// Collect each block's cross-node result in order, gathering block b
	// while the worker reduces block b+1. On failure, every issued shard is
	// still drained before returning: the worker goroutine must not outlive
	// this call while holding slices of the caller's data. The drain cannot
	// hang: RingAllReduceCodec already unwound the failing sub-communicator,
	// and the outer Unwind of any failing rank poisons all its lanes, so
	// in-flight shards resolve rather than block (op deadlines backstop).
	for b := 0; b < issued; b++ {
		if err := <-done; err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("hierarchical all-reduce inter shard block %d: %w", b, err)
			}
			continue
		}
		if firstErr != nil {
			continue
		}
		lo, hi := chunkBounds(len(data), blocks, b)
		if err := ringChunkAllGather(node, stream, data[lo:hi], codec, opts...); err != nil {
			firstErr = fmt.Errorf("hierarchical all-reduce intra all-gather block %d: %w", b, err)
		}
	}
	return firstErr
}

// HierarchicalAllReduceCodecReference is the serial three-phase hierarchy —
// intra-node ring all-reduce, leader-only ring across nodes, intra-node
// broadcast — retained as a correctness oracle for the two-level schedule
// and as the same-binary baseline arm of the hierarchy benchmarks (it is
// the leader-funnel design the two-level schedule exists to beat).
// Production callers want HierarchicalAllReduceCodec.
func HierarchicalAllReduceCodecReference(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	return Unwind(c, stream, hierarchicalAllReduceCodecReference(c, stream, gpusPerNode, data, op, codec, opts...))
}

func hierarchicalAllReduceCodecReference(c *mpi.Comm, stream, gpusPerNode int, data []float32, op tensor.ReduceOp, codec compress.Codec, opts ...Option) error {
	if c.Size() == 1 || len(data) == 0 {
		return nil
	}
	if gpusPerNode <= 0 {
		return fmt.Errorf("%w: gpusPerNode %d", mpi.ErrBadGroup, gpusPerNode)
	}
	defer obsOp(mHierarchical, opStart())
	node, err := c.NodeGroup(gpusPerNode)
	if err != nil {
		return fmt.Errorf("hierarchical all-reduce node group: %w", err)
	}
	// Phase 1: intra-node reduction.
	if err := RingAllReduceCodec(node, stream, data, op, codec, opts...); err != nil {
		return fmt.Errorf("hierarchical all-reduce intra: %w", err)
	}
	// Phase 2: leaders reduce across nodes.
	if node.Rank() == 0 {
		leaders, err := c.LeaderGroup(gpusPerNode)
		if err != nil {
			return fmt.Errorf("hierarchical all-reduce leader group: %w", err)
		}
		if err := RingAllReduceCodec(leaders, stream, data, op, codec, opts...); err != nil {
			return fmt.Errorf("hierarchical all-reduce inter: %w", err)
		}
	}
	// Phase 3: broadcast the global result within each node.
	if err := BroadcastCodec(node, stream, 0, data, codec); err != nil {
		return fmt.Errorf("hierarchical all-reduce broadcast: %w", err)
	}
	return nil
}
