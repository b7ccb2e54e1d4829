package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// dialHandshake opens a raw mesh socket to addr claiming (from, stream).
func dialHandshake(t *testing.T, addr string, from, stream int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(from))
	binary.BigEndian.PutUint32(hdr[4:], uint32(stream))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// Two handshakes claiming the same (rank, stream) pair must fail mesh
// establishment: a second reader on one inbox would interleave frames and
// silently break FIFO ordering.
func TestTCPDuplicateHandshakeRejected(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	ep := newTCPEndpoint(0, 3, 2, defaultTCPConfig())
	defer func() { _ = ep.Close() }()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- ep.acceptAll(l, 2) }()

	c1 := dialHandshake(t, l.Addr().String(), 1, 0)
	defer func() { _ = c1.Close() }()
	c2 := dialHandshake(t, l.Addr().String(), 1, 0) // same pair again
	defer func() { _ = c2.Close() }()

	select {
	case err := <-acceptErr:
		if !errors.Is(err, ErrDuplicatePeer) {
			t.Fatalf("acceptAll error = %v, want ErrDuplicatePeer", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acceptAll did not reject the duplicate handshake")
	}
}

// Distinct streams from the same rank are not duplicates.
func TestTCPDistinctStreamsAccepted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	ep := newTCPEndpoint(0, 2, 2, defaultTCPConfig())
	defer func() { _ = ep.Close() }()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- ep.acceptAll(l, 2) }()

	c1 := dialHandshake(t, l.Addr().String(), 1, 0)
	defer func() { _ = c1.Close() }()
	c2 := dialHandshake(t, l.Addr().String(), 1, 1)
	defer func() { _ = c2.Close() }()

	select {
	case err := <-acceptErr:
		if err != nil {
			t.Fatalf("acceptAll error = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("acceptAll did not finish")
	}
}

// A length header beyond maxFrameBytes must not turn into a silent hang:
// frames received before it still deliver, then Recv reports the corrupt
// stream as ErrFrameTooLarge.
func TestTCPOversizedHeaderSurfacesOnRecv(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	ep := newTCPEndpoint(0, 2, 1, defaultTCPConfig())
	defer func() { _ = ep.Close() }()
	acceptErr := make(chan error, 1)
	go func() { acceptErr <- ep.acceptAll(l, 1) }()

	conn := dialHandshake(t, l.Addr().String(), 1, 0)
	defer func() { _ = conn.Close() }()
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}

	var frame [8]byte
	binary.BigEndian.PutUint32(frame[0:], 4)
	copy(frame[4:], "good")
	var bad [4]byte
	binary.BigEndian.PutUint32(bad[:], uint32(maxFrameBytes+1))
	if _, err := conn.Write(append(frame[:], bad[:]...)); err != nil {
		t.Fatal(err)
	}

	got, err := ep.Recv(1, 0)
	if err != nil || string(got) != "good" {
		t.Fatalf("Recv before corrupt header = %q, %v", got, err)
	}
	if _, err := ep.Recv(1, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Recv after corrupt header = %v, want ErrFrameTooLarge", err)
	}
}

// A worker whose configured port is transiently held by another socket must
// ride it out with bind retries rather than failing the mesh.
func TestTCPWorkerBindRetry(t *testing.T) {
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	// Steal the worker's port, as another process could between FreeAddrs
	// releasing the reservation and the worker binding it.
	thief, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(150 * time.Millisecond)
		_ = thief.Close()
	}()

	ep, err := NewTCPWorker(0, 1, addrs, WithBindRetry(40, 25*time.Millisecond))
	if err != nil {
		t.Fatalf("worker did not recover from stolen port: %v", err)
	}
	_ = ep.Close()
}

// With retries exhausted while the port is still held, the bind error
// surfaces instead of hanging.
func TestTCPWorkerBindRetryExhausted(t *testing.T) {
	addrs, err := FreeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	thief, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = thief.Close() }()

	_, err = NewTCPWorker(0, 1, addrs, WithBindRetry(2, time.Millisecond))
	if err == nil {
		t.Fatal("expected bind failure while port is held")
	}
}

// A permanently invalid listen address must surface immediately instead of
// burning the full bind-retry budget on an error that can never succeed.
func TestTCPWorkerBindPermanentErrorFailsFast(t *testing.T) {
	start := time.Now()
	_, err := NewTCPWorker(0, 1, []string{"999.999.999.999:0"},
		WithBindRetry(100, 50*time.Millisecond))
	if err == nil {
		t.Fatal("expected bind failure for invalid address")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("permanent bind error took %v, want fail-fast", elapsed)
	}
}

// Send and Recv racing Close across the real TCP mesh must neither deadlock
// nor race (run under -race in make ci). Errors after Close are expected;
// corruption or a hang is not.
func TestTCPSendRecvRaceClose(t *testing.T) {
	const size, streams = 3, 2
	net_, err := NewTCP(size, streams)
	if err != nil {
		t.Fatal(err)
	}
	eps := make([]Endpoint, size)
	for r := 0; r < size; r++ {
		if eps[r], err = net_.Endpoint(r); err != nil {
			t.Fatal(err)
		}
	}

	var delivered atomic.Int64
	var closing atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < size; r++ {
		for peer := 0; peer < size; peer++ {
			if peer == r {
				continue
			}
			for s := 0; s < streams; s++ {
				wg.Add(2)
				go func(r, peer, s int) {
					defer wg.Done()
					for i := 0; ; i++ {
						msg := make([]byte, 64)
						binary.BigEndian.PutUint32(msg, uint32(i))
						if err := eps[r].Send(peer, s, msg); err != nil {
							// Once shutdown begins, a peer's socket may reset
							// before this endpoint reports ErrClosed locally.
							if !closing.Load() && !errors.Is(err, ErrClosed) {
								t.Errorf("send %d->%d/%d: %v", r, peer, s, err)
							}
							return
						}
					}
				}(r, peer, s)
				go func(r, peer, s int) {
					defer wg.Done()
					for want := uint32(0); ; want++ {
						got, err := eps[r].Recv(peer, s)
						if err != nil {
							// An endpoint that has not yet closed locally
							// reports a peer torn down first as ErrPeerFailed,
							// not ErrClosed — both are orderly teardown here.
							if !IsCommFailure(err) {
								t.Errorf("recv %d<-%d/%d: %v", r, peer, s, err)
							}
							return
						}
						if len(got) != 64 || binary.BigEndian.Uint32(got) != want {
							t.Errorf("recv %d<-%d/%d: frame %d corrupted", r, peer, s, want)
							return
						}
						delivered.Add(1)
					}
				}(r, peer, s)
			}
		}
	}

	time.Sleep(50 * time.Millisecond)
	closing.Store(true)
	// Race Close itself from two goroutines on top of the traffic.
	var closeWG sync.WaitGroup
	for i := 0; i < 2; i++ {
		closeWG.Add(1)
		go func() {
			defer closeWG.Done()
			_ = net_.Close()
		}()
	}
	closeWG.Wait()
	wg.Wait()
	if delivered.Load() == 0 {
		t.Error("no frames delivered before close")
	}
}

// The tuning options must produce a working mesh end to end.
func TestTCPOptionsEndToEnd(t *testing.T) {
	net_, err := NewTCP(2, 1,
		WithInboxDepth(8),
		WithReadBuffer(4<<10),
		WithSocketBuffers(64<<10, 64<<10),
		WithNoDelay(false),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net_.Close() }()
	ep0, _ := net_.Endpoint(0)
	ep1, _ := net_.Endpoint(1)
	for i := 0; i < 16; i++ {
		if err := ep0.Send(1, 0, []byte(fmt.Sprintf("frame-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		got, err := ep1.Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("frame-%d", i); string(got) != want {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
}

// Concurrent senders on one socket exercise the combining writer: every frame
// must arrive intact and each (from, stream) pair in FIFO order.
func TestTCPCombinedWritesDeliverAll(t *testing.T) {
	net_, err := NewTCP(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net_.Close() }()
	ep0, _ := net_.Endpoint(0)
	ep1, _ := net_.Endpoint(1)

	const senders, frames = 8, 200
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				msg := make([]byte, 8)
				binary.BigEndian.PutUint32(msg[0:], uint32(g))
				binary.BigEndian.PutUint32(msg[4:], uint32(i))
				if err := ep0.Send(1, 0, msg); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(g)
	}

	// Frames from different goroutines interleave arbitrarily, but each
	// goroutine's own sequence must stay ordered (its sends are serialized).
	next := make([]uint32, senders)
	for n := 0; n < senders*frames; n++ {
		got, err := ep1.Recv(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 8 {
			t.Fatalf("frame %d: len %d", n, len(got))
		}
		g := binary.BigEndian.Uint32(got[0:])
		i := binary.BigEndian.Uint32(got[4:])
		if i != next[g] {
			t.Fatalf("sender %d: frame %d out of order (want %d)", g, i, next[g])
		}
		next[g]++
	}
	wg.Wait()
}

// A frame written before the peer closed must still be delivered, even when
// the peer's other sockets report EOF first: Close on one endpoint shuts all
// of its lanes at once, and the readers of idle lanes see EOF before the busy
// lane's reader has decoded its last frame.
func TestTCPFrameBeforePeerCloseDelivered(t *testing.T) {
	const streams, payload = 3, 256 << 10
	for trial := 0; trial < 30; trial++ {
		net_, err := NewTCP(2, streams)
		if err != nil {
			t.Fatal(err)
		}
		ep0, _ := net_.Endpoint(0)
		ep1, _ := net_.Endpoint(1)
		msg := make([]byte, payload)
		msg[payload-1] = 7
		if err := ep1.Send(0, 0, msg); err != nil {
			t.Fatal(err)
		}
		_ = ep1.Close()
		got, err := ep0.Recv(1, 0)
		if err != nil {
			t.Fatalf("trial %d: frame sent before Close lost: %v", trial, err)
		}
		if len(got) != payload || got[payload-1] != 7 {
			t.Fatalf("trial %d: got %d bytes", trial, len(got))
		}
		if _, err := ep0.Recv(1, 0); !errors.Is(err, ErrPeerFailed) {
			t.Fatalf("trial %d: Recv after the last frame = %v, want ErrPeerFailed", trial, err)
		}
		_ = net_.Close()
	}
}
