// Package stream implements the multi-streamed communication thread pool of
// AIACC-Training (Algorithm 1). The pool owns N workers, each bound to a
// distinct stream id — the reproduction's equivalent of a CUDA stream with
// its own communication buffer. The engine dispatches all-reduce units to
// the workers; units on different streams proceed concurrently over the same
// physical network, multiplexing the link exactly as §V-B describes.
//
// Because the ring all-reduce matches messages FIFO per (peer, stream), all
// ranks must execute the same unit on the same stream in the same order.
// The pool therefore gives every stream its own FIFO queue; Submit assigns
// streams round-robin, which is deterministic as long as every rank submits
// units in the same (sequence) order — guaranteed by the packer's implicit
// ordering agreement.
package stream

import (
	"errors"
	"fmt"
	"sync"
)

// ErrClosed is returned when submitting to a closed pool.
var ErrClosed = errors.New("stream: pool closed")

// Task is one unit of communication work. It receives the stream id of the
// worker executing it, which it must use for all collective operations so
// that concurrent tasks never share a stream.
type Task func(streamID int) error

// Pool is a fixed-size pool of stream-bound workers, each with a private
// FIFO queue.
type Pool struct {
	queues []chan Task

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int
	firstErr error
	closed   bool
	next     int // round-robin cursor for Submit

	workerWG sync.WaitGroup
}

// queueDepth is each stream's queue capacity: enough to let the dispatcher
// run ahead of a busy stream without unbounded buffering.
const queueDepth = 2

// NewPool starts a pool of n workers bound to stream ids 0..n-1.
func NewPool(n int) (*Pool, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stream: pool size %d", n)
	}
	p := &Pool{queues: make([]chan Task, n)}
	p.cond = sync.NewCond(&p.mu)
	for id := 0; id < n; id++ {
		p.queues[id] = make(chan Task, queueDepth)
		p.workerWG.Add(1)
		go p.worker(id)
	}
	return p, nil
}

// Streams returns the number of workers (= stream ids).
func (p *Pool) Streams() int { return len(p.queues) }

func (p *Pool) worker(id int) {
	defer p.workerWG.Done()
	for task := range p.queues[id] {
		err := task(id)
		p.mu.Lock()
		if err != nil && p.firstErr == nil {
			p.firstErr = err
		}
		p.inflight--
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// Submit dispatches a task to the next stream in round-robin order, blocking
// while that stream's queue is full. Round-robin assignment is deterministic:
// ranks submitting identical task sequences place task k on stream
// k mod Streams().
func (p *Pool) Submit(t Task) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	id := p.next
	p.next = (p.next + 1) % len(p.queues)
	p.inflight++
	p.mu.Unlock()
	p.queues[id] <- t
	return nil
}

// Wait blocks until every submitted task has completed and returns the first
// task error observed since the last Wait. The error state resets on return.
func (p *Pool) Wait() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.inflight > 0 {
		p.cond.Wait()
	}
	err := p.firstErr
	p.firstErr = nil
	return err
}

// Close drains the pool: it waits for in-flight tasks, stops the workers and
// releases them. Close is idempotent; it returns the first task error seen.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	for p.inflight > 0 {
		p.cond.Wait()
	}
	err := p.firstErr
	p.mu.Unlock()
	for _, q := range p.queues {
		close(q)
	}
	p.workerWG.Wait()
	return err
}
