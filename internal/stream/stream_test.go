package stream

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewPoolValidation(t *testing.T) {
	if _, err := NewPool(0); err == nil {
		t.Error("pool size 0 must be rejected")
	}
	p, err := NewPool(3)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	if p.Streams() != 3 {
		t.Errorf("Streams = %d, want 3", p.Streams())
	}
}

func TestSubmitRunsAllTasks(t *testing.T) {
	p, err := NewPool(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		if err := p.Submit(func(streamID int) error {
			count.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if count.Load() != 100 {
		t.Errorf("ran %d tasks, want 100", count.Load())
	}
}

func TestStreamIDsAreDistinctAndStable(t *testing.T) {
	const workers = 4
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()

	// Block all workers simultaneously and record their ids.
	var mu sync.Mutex
	seen := map[int]bool{}
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(workers)
	for i := 0; i < workers; i++ {
		if err := p.Submit(func(streamID int) error {
			mu.Lock()
			seen[streamID] = true
			mu.Unlock()
			started.Done()
			<-release
			return nil
		}); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	started.Wait()
	close(release)
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != workers {
		t.Fatalf("saw %d distinct stream ids, want %d: %v", len(seen), workers, seen)
	}
	for id := range seen {
		if id < 0 || id >= workers {
			t.Errorf("stream id %d out of range", id)
		}
	}
}

func TestSubmitRoundRobinIsDeterministic(t *testing.T) {
	const workers, tasks = 3, 12
	p, err := NewPool(workers)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	var mu sync.Mutex
	assigned := make([]int, tasks)
	order := make([][]int, workers) // per-stream run order
	for i := 0; i < tasks; i++ {
		i := i
		if err := p.Submit(func(streamID int) error {
			mu.Lock()
			assigned[i] = streamID
			order[streamID] = append(order[streamID], i)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, got := range assigned {
		if got != i%workers {
			t.Errorf("task %d ran on stream %d, want %d", i, got, i%workers)
		}
	}
	// Each stream runs its tasks in submission order (per-stream FIFO).
	for s, ran := range order {
		for k, i := range ran {
			if i != s+k*workers {
				t.Fatalf("stream %d ran tasks %v, want submission order", s, ran)
			}
		}
	}
}

func TestWaitReturnsFirstError(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	boom := errors.New("boom")
	_ = p.Submit(func(streamID int) error { return nil })
	_ = p.Submit(func(streamID int) error { return boom })
	_ = p.Submit(func(streamID int) error { return nil })
	if err := p.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want boom", err)
	}
	// Error state resets after Wait.
	_ = p.Submit(func(streamID int) error { return nil })
	if err := p.Wait(); err != nil {
		t.Errorf("second Wait = %v, want nil", err)
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	p, err := NewPool(2)
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	_ = p.Submit(func(streamID int) error {
		time.Sleep(10 * time.Millisecond)
		done.Store(true)
		return nil
	})
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if !done.Load() {
		t.Error("Close returned before in-flight task finished")
	}
	if err := p.Submit(func(streamID int) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after close = %v, want ErrClosed", err)
	}
	if err := p.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

func TestCloseReportsTaskError(t *testing.T) {
	p, err := NewPool(1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("late failure")
	_ = p.Submit(func(streamID int) error { return boom })
	if err := p.Close(); !errors.Is(err, boom) {
		t.Errorf("Close = %v, want boom", err)
	}
}

func TestConcurrentSubmitters(t *testing.T) {
	p, err := NewPool(8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = p.Close() }()
	var count atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = p.Submit(func(streamID int) error {
					count.Add(1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if err := p.Wait(); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 16*50 {
		t.Errorf("ran %d tasks, want %d", count.Load(), 16*50)
	}
}
