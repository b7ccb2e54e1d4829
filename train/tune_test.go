package train

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"aiacc/autotune"
	"aiacc/engine"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/optimizer"
	"aiacc/transport"
)

// smallSpace keeps live tuning fast in tests.
func smallSpace() autotune.Space {
	return autotune.Space{
		Streams:       []int{1, 2, 4},
		Granularities: []int64{32 << 10, 128 << 10},
		Segments:      []int64{16 << 10, 64 << 10},
		NodeGroups:    []int{1, 2},
	}
}

// Live tuning across 3 workers must complete, consume the budget as real
// training steps, and return identical parameters on every rank.
func TestTuneLiveAgreesAcrossRanks(t *testing.T) {
	const size = 3
	space := smallSpace()
	net, err := transport.NewMem(size, space.Streams[len(space.Streams)-1]+1)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()

	base := engine.DefaultConfig()

	results := make([]TuneResult, size)
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
			comm := mpi.NewWorld(ep)
			producer := NewSyntheticProducer(model.TinyMLP(), r)
			sgd, err := optimizer.NewSGD(optimizer.Const(0.01), 0, 0)
			if err != nil {
				errc <- err
				return
			}
			res, err := TuneLive(comm, base, space, 10, producer,
				func() optimizer.Optimizer { return sgd }, 42)
			if err != nil {
				errc <- fmt.Errorf("rank %d: %w", r, err)
				return
			}
			results[r] = res
		}(r, ep)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for r := 1; r < size; r++ {
		if results[r].Best != results[0].Best {
			t.Errorf("rank %d chose %v, rank 0 chose %v", r, results[r].Best, results[0].Best)
		}
	}
	res := results[0]
	if res.StepsDone != 10 {
		t.Errorf("StepsDone = %d, want the full budget of 10", res.StepsDone)
	}
	if res.Trials < 2 {
		t.Errorf("Trials = %d, want several candidates", res.Trials)
	}
	if res.BestCost <= 0 {
		t.Errorf("BestCost = %v", res.BestCost)
	}
	if res.Best.Streams < 1 || res.Best.GranularityBytes < 4 {
		t.Errorf("Best = %v", res.Best)
	}
}

func TestTuneLiveValidation(t *testing.T) {
	net, err := transport.NewMem(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = net.Close() }()
	ep, _ := net.Endpoint(0)
	comm := mpi.NewWorld(ep)
	producer := NewSyntheticProducer(model.TinyMLP(), 0)
	sgd, _ := optimizer.NewSGD(optimizer.Const(0.01), 0, 0)
	factory := func() optimizer.Optimizer { return sgd }

	if _, err := TuneLive(nil, engine.DefaultConfig(), smallSpace(), 5, producer, factory, 1); !errors.Is(err, ErrBadTune) {
		t.Errorf("nil comm error = %v", err)
	}
	if _, err := TuneLive(comm, engine.DefaultConfig(), smallSpace(), 5, nil, factory, 1); !errors.Is(err, ErrBadTune) {
		t.Errorf("nil producer error = %v", err)
	}
	if _, err := TuneLive(comm, engine.DefaultConfig(), autotune.Space{}, 5, producer, factory, 1); !errors.Is(err, autotune.ErrBadSpace) {
		t.Errorf("empty space error = %v", err)
	}
	// Transport with too few streams for the space.
	if _, err := TuneLive(comm, engine.DefaultConfig(), smallSpace(), 5, producer, factory, 1); !errors.Is(err, ErrBadTune) {
		t.Errorf("stream shortfall error = %v", err)
	}
}

func TestApplyParams(t *testing.T) {
	base := engine.DefaultConfig()
	base.MinSyncBytes = 123
	got := ApplyParams(base, autotune.Params{Streams: 7, GranularityBytes: 1 << 20, SegmentBytes: 64 << 10, GPUsPerNode: 4})
	if got.Streams != 7 || got.GranularityBytes != 1<<20 || got.SegmentBytes != 64<<10 || got.GPUsPerNode != 4 {
		t.Errorf("ApplyParams = %+v", got)
	}
	if got.MinSyncBytes != 0 {
		t.Error("MinSyncBytes must reset with the new granularity")
	}
	// A grouping that does not divide the world degenerates to the flat ring.
	if got := candidateConfig(base, autotune.Params{Streams: 2, GranularityBytes: 4096, GPUsPerNode: 4}, 6); got.GPUsPerNode != 1 {
		t.Errorf("gpusPerNode 4 at world 6 = %d, want 1", got.GPUsPerNode)
	}
	if got := candidateConfig(base, autotune.Params{Streams: 2, GranularityBytes: 4096, GPUsPerNode: 2}, 6); got.GPUsPerNode != 2 {
		t.Errorf("gpusPerNode 2 at world 6 = %d, want 2", got.GPUsPerNode)
	}
}

// TestDefaultSpaceConfigsDistinct checks the autotuner spends no trial on a
// duplicate: at world 16 every point of the default space runs a distinct
// engine configuration.
func TestDefaultSpaceConfigsDistinct(t *testing.T) {
	space := autotune.DefaultSpace()
	seen := make(map[string]autotune.Params, space.Size())
	for i := 0; i < space.Size(); i++ {
		p := space.At(i)
		key := fmt.Sprintf("%+v", candidateConfig(engine.DefaultConfig(), p, 16))
		if prev, dup := seen[key]; dup {
			t.Fatalf("%v and %v run the same engine config %s", prev, p, key)
		}
		seen[key] = p
	}
	if len(seen) != 1120 {
		t.Errorf("%d distinct engine configs, want 1120", len(seen))
	}
}
