package perseus

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	"aiacc/optimizer"
	"aiacc/tensor"
	"aiacc/transport"
)

// runSessions builds a mem network and executes fn once per rank.
func runSessions(t *testing.T, size int, opts []Option, fn func(s *Session) error) {
	t.Helper()
	streams, err := RequiredStreams(opts...)
	if err != nil {
		t.Fatal(err)
	}
	net, err := transport.NewMem(size, streams)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	var wg sync.WaitGroup
	errc := make(chan error, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int, ep transport.Endpoint) {
			defer wg.Done()
			s, err := NewSession(ep, opts...)
			if err != nil {
				errc <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			defer func() { _ = s.Close() }()
			if err := fn(s); err != nil {
				errc <- fmt.Errorf("rank %d: %w", r, err)
			}
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestSessionBasics(t *testing.T) {
	runSessions(t, 4, nil, func(s *Session) error {
		if s.Size() != 4 {
			return fmt.Errorf("Size = %d", s.Size())
		}
		if s.Rank() < 0 || s.Rank() >= 4 {
			return fmt.Errorf("Rank = %d", s.Rank())
		}
		if s.LocalRank(2) != s.Rank()%2 {
			return fmt.Errorf("LocalRank = %d", s.LocalRank(2))
		}
		if s.LocalRank(0) != 0 {
			return fmt.Errorf("LocalRank(0) = %d", s.LocalRank(0))
		}
		return nil
	})
}

func TestAllReduceAverages(t *testing.T) {
	runSessions(t, 3, nil, func(s *Session) error {
		if err := s.Register("w", 100); err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		g := tensor.Filled(float32(s.Rank()+1), 100)
		if err := s.AllReduce(map[string]*tensor.Tensor{"w": g}); err != nil {
			return err
		}
		for i := 0; i < g.Len(); i++ {
			if g.At(i) != 2 { // mean of 1,2,3
				return fmt.Errorf("g[%d] = %v, want 2", i, g.At(i))
			}
		}
		st := s.Stats()
		if st.Iterations != 1 || st.BytesReduced != 400 {
			return fmt.Errorf("stats = %+v", st)
		}
		return nil
	})
}

// The Horovod porting pattern end-to-end: broadcast initial parameters, wrap
// the optimizer, train a quadratic, verify identical convergence everywhere.
func TestDistributedOptimizerWorkflow(t *testing.T) {
	const size = 3
	var mu sync.Mutex
	finals := map[int]float32{}
	runSessions(t, size, []Option{WithStreams(2), WithGranularity(1 << 20)}, func(s *Session) error {
		w := tensor.New(1)
		if s.Rank() == 0 {
			w.Set(0, 10) // only root has the "loaded" model
		}
		g := tensor.New(1)
		params := []optimizer.Param{{Name: "w", Weight: w, Grad: g}}
		if err := s.RegisterParams(params); err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		if err := s.BroadcastParameters(params, 0); err != nil {
			return err
		}
		if w.At(0) != 10 {
			return fmt.Errorf("broadcast missed: w=%v", w.At(0))
		}
		sgd, err := optimizer.NewSGD(optimizer.Const(0.1), 0, 0)
		if err != nil {
			return err
		}
		opt := s.DistributedOptimizer(sgd)
		if opt.Name() != "distributed-sgd" {
			return fmt.Errorf("optimizer name = %q", opt.Name())
		}
		// Minimize (w-3)^2 with rank-dependent gradient noise that cancels
		// in the average: grad = 2(w-3) + (rank - mean).
		for step := 1; step <= 80; step++ {
			noise := float32(s.Rank()) - float32(size-1)/2
			g.Set(0, 2*(w.At(0)-3)+noise)
			if err := opt.Step(step, params); err != nil {
				return err
			}
		}
		if math.Abs(float64(w.At(0))-3) > 1e-3 {
			return fmt.Errorf("w = %v, want ~3", w.At(0))
		}
		mu.Lock()
		finals[s.Rank()] = w.At(0)
		mu.Unlock()
		return nil
	})
	base := finals[0]
	for r, v := range finals {
		if v != base {
			t.Errorf("rank %d final w = %v, rank 0 = %v", r, v, base)
		}
	}
}

func TestOptionsApplyAndValidate(t *testing.T) {
	if _, err := RequiredStreams(WithStreams(7)); err != nil {
		t.Error(err)
	}
	n, err := RequiredStreams(WithStreams(7))
	if err != nil || n != 8 {
		t.Errorf("RequiredStreams = %d, %v", n, err)
	}
	for _, bad := range []Option{WithStreams(0), WithGranularity(1), WithHierarchicalAllReduce(0)} {
		if _, err := RequiredStreams(bad); err == nil {
			t.Error("invalid option accepted")
		}
	}
	// Feature options compose on a live multi-worker session.
	opts := []Option{
		WithStreams(3),
		WithGranularity(64 << 10),
		WithHierarchicalAllReduce(2),
		WithFP16Compression(),
		WithoutAveraging(),
	}
	runSessions(t, 4, opts, func(s *Session) error {
		if err := s.Register("w", 50); err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		g := tensor.Filled(1, 50)
		if err := s.AllReduce(map[string]*tensor.Tensor{"w": g}); err != nil {
			return err
		}
		for i := 0; i < g.Len(); i++ {
			if g.At(i) != 4 { // sum, not average
				return fmt.Errorf("g[%d] = %v, want 4", i, g.At(i))
			}
		}
		return nil
	})
}

func TestNaNDetectionOption(t *testing.T) {
	runSessions(t, 1, []Option{WithNaNDetection()}, func(s *Session) error {
		if err := s.Register("w", 4); err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		bad := tensor.New(4)
		bad.Set(1, float32(math.Inf(1)))
		err := s.PushGradient("w", bad)
		var nan *NaNError
		if !errors.As(err, &nan) || nan.Name != "w" || nan.Index != 1 {
			return fmt.Errorf("NaN error = %v", err)
		}
		// Finish the iteration cleanly.
		if err := s.PushGradient("w", tensor.New(4)); err != nil {
			return err
		}
		return s.WaitIteration()
	})
}

func TestGradientCallbackOption(t *testing.T) {
	var mu sync.Mutex
	seen := map[string]int{}
	opts := []Option{WithGradientCallback(func(name string) {
		mu.Lock()
		seen[name]++
		mu.Unlock()
	})}
	runSessions(t, 1, opts, func(s *Session) error {
		if err := s.Register("a", 8); err != nil {
			return err
		}
		if err := s.Register("b", 8); err != nil {
			return err
		}
		if err := s.Start(); err != nil {
			return err
		}
		return s.AllReduce(map[string]*tensor.Tensor{
			"a": tensor.New(8),
			"b": tensor.New(8),
		})
	})
	mu.Lock()
	defer mu.Unlock()
	if seen["a"] != 1 || seen["b"] != 1 {
		t.Errorf("callback counts = %v", seen)
	}
}

func TestNewSessionValidation(t *testing.T) {
	if _, err := NewSession(nil); err == nil {
		t.Error("nil endpoint must fail")
	}
	net, err := transport.NewMem(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	if _, err := NewSession(ep, WithStreams(-1)); err == nil {
		t.Error("bad option must fail")
	}
	s, err := NewSession(ep)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.WaitIteration(); !errors.Is(err, ErrNotStarted) {
		t.Errorf("pre-start wait error = %v", err)
	}
}
