package bench

import (
	"fmt"
	"sync"
	"time"

	"aiacc/cluster"
	"aiacc/collective"
	"aiacc/compress"
	"aiacc/internal/bufpool"
	"aiacc/model"
	"aiacc/mpi"
	"aiacc/netmodel"
	"aiacc/tensor"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

// ShmLoopback is the shared-memory transport's same-binary A/B: stream the
// same byte volume through an shm ring pair and through a TCP loopback
// socket pair and report both throughputs. The shm arm moves frames with a
// single memcpy into an mmap'd ring (no syscalls, no socket buffers), so it
// should win by an order of magnitude on co-located processes.
func (s *Suite) ShmLoopback() (Table, error) {
	t := Table{
		ID:     "shm-loopback",
		Title:  "Intra-host transport A/B: shm ring vs TCP loopback, one-way stream",
		Header: []string{"frame", "shm MB/s", "tcp MB/s", "speedup"},
		Notes: []string{
			"best of 3 trials per arm; one sender, one receiver, pooled buffers both sides",
			"shm = mmap'd SPSC ring (one memcpy per side); tcp = loopback socket with framing",
		},
	}
	for _, size := range []int{64 << 10, 1 << 20, 4 << 20} {
		shmTput, err := runLoopbackArm(size, func() (transport.Network, error) {
			return shmnet.New(2, 1, shmnet.WithRingBytes(1<<20), shmnet.WithOpTimeout(10*time.Second))
		})
		if err != nil {
			return t, fmt.Errorf("shm-loopback shm %d: %w", size, err)
		}
		tcpTput, err := runLoopbackArm(size, func() (transport.Network, error) {
			return transport.NewTCP(2, 1)
		})
		if err != nil {
			return t, fmt.Errorf("shm-loopback tcp %d: %w", size, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dKiB", size>>10),
			fmt.Sprintf("%.0f", shmTput),
			fmt.Sprintf("%.0f", tcpTput),
			fmt.Sprintf("%.1fx", shmTput/tcpTput),
		})
	}
	return t, nil
}

// runLoopbackArm streams frames of `size` bytes one way between two ranks of
// a fresh network and returns the best MB/s over 3 trials.
func runLoopbackArm(size int, mk func() (transport.Network, error)) (float64, error) {
	net, err := mk()
	if err != nil {
		return 0, err
	}
	defer func() { _ = net.Close() }()
	src, err := net.Endpoint(0)
	if err != nil {
		return 0, err
	}
	dst, err := net.Endpoint(1)
	if err != nil {
		return 0, err
	}
	// Enough frames for the measurement to dominate setup, few enough for CI.
	frames := 256
	if size >= 1<<20 {
		frames = 64
	}
	var best float64
	for trial := 0; trial < 3; trial++ {
		errc := make(chan error, 1)
		start := time.Now()
		go func() {
			for i := 0; i < frames; i++ {
				got, err := dst.Recv(0, 0)
				if err != nil {
					errc <- err
					return
				}
				bufpool.Put(got)
			}
			errc <- nil
		}()
		for i := 0; i < frames; i++ {
			if err := src.Send(1, 0, bufpool.Get(size)); err != nil {
				return 0, err
			}
		}
		if err := <-errc; err != nil {
			return 0, err
		}
		tput := float64(frames) * float64(size) / time.Since(start).Seconds() / 1e6
		if tput > best {
			best = tput
		}
	}
	return best, nil
}

// Hierarchy is the two-level schedule's live A/B on its target topology —
// 2 hosts × 4 ranks, shm rings inside each host, TCP loopback across — with
// the cluster simulator's prediction for the same shape alongside. Two live
// arms share one binary and one network: the flat pipelined ring and the
// overlapped two-level schedule.
func (s *Suite) Hierarchy() (Table, error) {
	t := Table{
		ID:     "hierarchy",
		Title:  "Two-level hierarchical all-reduce vs flat ring (2 hosts x 4 ranks, shm intra / TCP inter)",
		Header: []string{"variant", "payload", "ms/op (min of 3)", "speedup vs flat"},
		Notes: []string{
			"live arms run real bytes over shm rings intra-host and TCP loopback inter-host",
			"sim rows are the cluster model's prediction on netmodel.TwoTierLoopback(2,4) with VGG16",
			"two-level = intra reduce-scatter / cross-node shard ring / intra all-gather, pipelined",
		},
	}
	const hosts, perHost, elems = 2, 4, 1 << 20 // 4 MiB fp32
	type variant struct {
		name string
		run  func(c *mpi.Comm, data []float32) error
	}
	variants := []variant{
		{name: "flat ring", run: func(c *mpi.Comm, data []float32) error {
			return collective.RingAllReduceCodec(c, 0, data, tensor.OpSum, compress.FP32{})
		}},
		{name: "two-level", run: func(c *mpi.Comm, data []float32) error {
			return collective.HierarchicalAllReduceCodec(c, 0, perHost, data, tensor.OpSum, compress.FP32{})
		}},
	}
	var flat time.Duration
	for _, v := range variants {
		best, err := runHierarchyArm(hosts, perHost, elems, 3, v.run)
		if err != nil {
			return t, fmt.Errorf("hierarchy %s: %w", v.name, err)
		}
		if v.name == "flat ring" {
			flat = best
		}
		t.Rows = append(t.Rows, []string{
			"live " + v.name, fmt.Sprintf("%dMiB", elems*4>>20),
			fmt.Sprintf("%.2f", best.Seconds()*1e3),
			fmt.Sprintf("%.2fx", flat.Seconds()/best.Seconds()),
		})
	}
	// The simulator's verdict on the same topology shape: hierarchy must win
	// on a comm-heavy model when the intra tier is an order of magnitude
	// faster than the inter tier.
	flatCfg := cluster.Config{
		Topology:      netmodel.TwoTierLoopback(hosts, perHost),
		GPU:           cluster.V100(),
		Model:         model.VGG16(),
		Engine:        cluster.EngineDefaults(cluster.AIACC),
		Decentralized: true,
	}
	var simFlat time.Duration
	for _, arm := range []struct {
		name string
		cfg  cluster.Config
	}{{"ring", flatCfg}, {"hierarchical", hierarchical(flatCfg)}} {
		res, err := cluster.Simulate(arm.cfg)
		if err != nil {
			return t, fmt.Errorf("hierarchy sim %s: %w", arm.name, err)
		}
		if simFlat == 0 {
			simFlat = res.IterTime
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("sim %s (VGG16)", arm.name), "iter",
			fmt.Sprintf("%.2f", res.IterTime.Seconds()*1e3),
			fmt.Sprintf("%.2fx", simFlat.Seconds()/res.IterTime.Seconds()),
		})
	}
	return t, nil
}

// runHierarchyArm times `trials` collective calls of `elems` floats on a
// hosts×perHost two-tier network (shm intra, TCP loopback inter) and returns
// the fastest trial.
func runHierarchyArm(hosts, perHost, elems, trials int,
	run func(c *mpi.Comm, data []float32) error) (time.Duration, error) {
	size := hosts * perHost
	intra := make([]transport.Network, hosts)
	for h := range intra {
		n, err := shmnet.New(perHost, 1, shmnet.WithOpTimeout(30*time.Second))
		if err != nil {
			return 0, err
		}
		intra[h] = n
	}
	inter, err := transport.NewTCP(size, 1)
	if err != nil {
		return 0, err
	}
	net, err := transport.NewTwoTier(perHost, intra, inter)
	if err != nil {
		return 0, err
	}
	defer func() { _ = net.Close() }()
	comms := make([]*mpi.Comm, size)
	datas := make([][]float32, size)
	for r := 0; r < size; r++ {
		ep, err := net.Endpoint(r)
		if err != nil {
			return 0, err
		}
		comms[r] = mpi.NewWorld(ep)
		datas[r] = make([]float32, elems)
	}
	best := time.Duration(1<<62 - 1)
	for trial := 0; trial < trials; trial++ {
		for r := range datas {
			for i := range datas[r] {
				datas[r][i] = float32((r + i) % 8)
			}
		}
		start := time.Now()
		var wg sync.WaitGroup
		errc := make(chan error, size)
		for r := 0; r < size; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				if err := run(comms[r], datas[r]); err != nil {
					errc <- err
				}
			}(r)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			return 0, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best, nil
}
