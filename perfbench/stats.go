package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between closest ranks; NaN for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile picks the highest rung of the ladder that leaves at least
// ten samples beyond it, starting from want; 50 if none does.
func tailPercentile(n int, want float64) float64 {
	for _, p := range []float64{99.9, 99, 98, 95, 90, 80, 50} {
		if p > want {
			continue
		}
		if float64(n)*(1-p/100) >= 10 {
			return p
		}
	}
	return 50
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = msOf(d)
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// memSampler records the peak heap in use (the runtime's HeapInuse: live and
// not-yet-swept objects plus the free space of in-use spans) by polling the
// runtime's metrics every few milliseconds. runtime/metrics reads do not
// stop the world, unlike runtime.ReadMemStats.
type memSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	wg   sync.WaitGroup
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{})}
	sample := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64() + sample[1].Value.Uint64(); v > m.peak.Load() {
			m.peak.Store(v)
		}
	}
	read()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the peak in MiB.
func (m *memSampler) Stop() float64 {
	close(m.stop)
	m.wg.Wait()
	return float64(m.peak.Load()) / (1 << 20)
}

// procStats is a snapshot of process-wide allocation and GC counters.
type procStats struct {
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func readProcStats() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}
