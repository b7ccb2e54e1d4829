package collective

import (
	"fmt"

	"aiacc/compress"
	"aiacc/mpi"
	"aiacc/tensor"
)

// serialRingAllReduce is the serial pre-pipelining ring all-reduce, kept as
// the tests' correctness oracle: one wire frame per ring step, the whole
// chunk decoded before reduction, and an all-gather that decodes and
// re-encodes every received chunk. Under a lossless codec the pipelined
// ring must match it bit for bit.
func serialRingAllReduce(c *mpi.Comm, stream int, data []float32, op tensor.ReduceOp, codec compress.Codec) error {
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
