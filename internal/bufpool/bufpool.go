// Package bufpool is the process-wide pool of wire buffers shared by the
// collective layer and the transports. Buffers are recycled through
// size-classed free lists (powers of two from 32 B to 64 MiB), so a Get never
// returns a buffer with less capacity than requested and a steady-state
// workload that returns what it takes allocates nothing — the property both
// the memnet ring collectives and the TCP receive path are built on
// (DESIGN.md §6).
//
// The pool deals in plain []byte at the API, but each free list holds *boxed*
// slices (*[]byte) so that a Get/Put round trip does not allocate an
// interface box for the slice header: empty boxes circulate through a
// dedicated box pool and are re-filled on Put.
//
// Ownership rules are the transport's: a buffer passed to Put must be
// exclusively owned by the caller and is immediately eligible for reuse by
// any goroutine in the process. Buffers smaller than the minimum size class
// are never pooled.
package bufpool

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"aiacc/metrics"
)

const (
	// minClassBits is the smallest pooled capacity (32 B): below this the
	// bookkeeping costs more than the allocation, and the floor protects
	// deliberately-shared tiny payloads (see package comment).
	minClassBits = 5
	// maxClassBits is the largest pooled capacity (64 MiB): a typical
	// all-reduce unit is ≤ 4 MiB, so anything above this is a one-off.
	maxClassBits = 26
	numClasses   = maxClassBits - minClassBits + 1
)

// classes[i] holds boxed slices whose capacity is at least 1<<(minClassBits+i).
var classes [numClasses]sync.Pool

// boxes recycles empty *[]byte boxes between Put (which needs one) and Get
// (which frees one).
var boxes = sync.Pool{New: func() any { return new([]byte) }}

// Pool metrics (DESIGN.md §7): per-class hit/miss counters show which size
// classes the workload actually cycles (and thus whether granularity and pool
// classes line up), oversize fallbacks flag frames above the 64 MiB ceiling,
// dropped puts flag buffers the pool refuses to retain. Instruments are
// resolved once at init; Get/Put increment a preresolved atomic.
var (
	classHits   [numClasses]*metrics.Counter
	classMisses [numClasses]*metrics.Counter
	mOversize   = metrics.NewCounter("aiacc_bufpool_oversize_gets_total",
		"Gets above the largest size class, served by plain allocation.")
	mDropped = metrics.NewCounter("aiacc_bufpool_dropped_puts_total",
		"Puts outside the pooled capacity range, dropped.")
)

// gets/puts are always-on balance counters (plain atomics, not registry
// instruments, so they stay live under metrics.SetEnabled(false)): every Get
// of a non-empty buffer increments gets and every Put of a non-empty buffer
// increments puts, whichever size class (or fallback path) served it. Failure
// tests delta Outstanding() around an aborted collective to prove the unwind
// returned every pooled buffer it took.
var gets, puts atomic.Int64

// Outstanding returns gets-minus-puts since process start. Only deltas are
// meaningful: buffers allocated outside the pool but Put into it shift the
// absolute value.
func Outstanding() int64 { return gets.Load() - puts.Load() }

func init() {
	for k := 0; k < numClasses; k++ {
		class := metrics.L("class", strconv.Itoa(1<<(k+minClassBits)))
		classHits[k] = metrics.NewCounter("aiacc_bufpool_hits_total",
			"Gets satisfied from a free list, by size class capacity.", class)
		classMisses[k] = metrics.NewCounter("aiacc_bufpool_misses_total",
			"Gets that allocated a fresh buffer, by size class capacity.", class)
	}
}

// classFor returns the free list guaranteed to satisfy a request for n bytes:
// the smallest class whose minimum capacity is >= n. n must be > 0.
func classFor(n int) int {
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c < minClassBits {
		c = minClassBits
	}
	return c - minClassBits
}

// classOf returns the free list a buffer of capacity c feeds, or -1 when the
// buffer is outside the pooled range: floor(log2(c)), because a buffer in
// class i must have capacity >= 1<<i.
func classOf(c int) int {
	if c < 1<<minClassBits {
		return -1
	}
	k := bits.Len(uint(c)) - 1 // floor(log2(c))
	if k > maxClassBits {
		return -1
	}
	return k - minClassBits
}

// empty is what Get(0) returns: a shared zero-length, zero-capacity slice.
// It is immune to pooling (classOf rejects it) and carries no data to race on.
var empty = make([]byte, 0)

// Get returns a buffer of length n drawn from the pool. Contents are
// arbitrary (not zeroed). The caller owns the buffer until it passes it to
// Put, a transport Send, or another owner. Requests above the largest size
// class are served by a plain allocation, mirroring how Put drops them.
func Get(n int) []byte {
	if n == 0 {
		return empty
	}
	gets.Add(1)
	k := classFor(n)
	if k >= numClasses {
		mOversize.Inc()
		return make([]byte, n)
	}
	b := take(k)
	if cap(b) < n {
		classMisses[k].Inc()
		// Pool miss: allocate the class's full capacity so the buffer is
		// maximally reusable when it comes back.
		return make([]byte, n, 1<<(k+minClassBits))
	}
	classHits[k].Inc()
	return b[:n]
}

// GetCap returns a zero-length buffer with capacity at least n, for
// append-style encoding (EncodeTo(buf, …)).
func GetCap(n int) []byte {
	if n == 0 {
		return empty
	}
	return Get(n)[:0]
}

// take pops a buffer from class k, or returns nil on a miss.
func take(k int) []byte {
	bp, _ := classes[k].Get().(*[]byte)
	if bp == nil {
		return nil
	}
	b := *bp
	*bp = nil
	boxes.Put(bp)
	return b
}

// Put recycles a buffer. Buffers below the minimum class size or above the
// maximum are dropped (see package comment for why the floor is load-bearing).
// Put(nil) is a no-op. The caller must not touch the buffer afterwards.
func Put(b []byte) {
	if cap(b) > 0 {
		puts.Add(1)
	}
	k := classOf(cap(b))
	if k < 0 {
		if cap(b) > 0 {
			mDropped.Inc()
		}
		return
	}
	bp := boxes.Get().(*[]byte)
	*bp = b[:0]
	classes[k].Put(bp)
}
