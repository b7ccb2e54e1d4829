package main

import (
	"fmt"
	"math/rand/v2"

	"aiacc/model"
)

// variants is how many distinct gradient sets each rank cycles through, so a
// stale or missing reduction never matches the expected mean of the current
// iteration.
const variants = 2

// zooInputs are the generated inputs of a zoo-shaped workload: tensor
// layout, per-rank gradient values and their exact expected mean.
type zooInputs struct {
	names   []string
	layers  []int
	offsets []int // start of each tensor in a rank's flat buffer
	elems   []int
	total   int
	sched   []model.GradEvent
	grads   [][][]float32 // [rank][variant] flat gradient values
	want    [][]float32   // [variant] expected averaged gradient
	weights []float32     // rank 0's initial weights
}

// dyadic fills dst with values m/8, m uniform in [-32, 32]. Sums and means of
// up to 64 such values are exact in fp32 and fp16, so the expected result of
// an all-reduce is exact under any reduction order and under fp16 wire
// compression, and can be required bit for bit.
func dyadic(dst []float32, seed, stream uint64) {
	r := rand.New(rand.NewPCG(seed, stream))
	for i := 0; i < len(dst); {
		u := r.Uint64()
		for k := 0; k < 8 && i < len(dst); k++ {
			m := int(u&0xff)%65 - 32
			dst[i] = float32(m) / 8
			u >>= 8
			i++
		}
	}
}

// makeZooInputs scales every tensor of m down by divisor (at least one
// element each) and generates seeded values for ranks ranks.
func makeZooInputs(m model.Model, divisor, ranks int, seed uint64) (*zooInputs, error) {
	if ranks > 64 {
		return nil, fmt.Errorf("%d ranks: dyadic sums are exact only up to 64", ranks)
	}
	in := &zooInputs{sched: m.BackwardSchedule()}
	for _, p := range m.Params() {
		n := max(1, p.Elems/divisor)
		in.names = append(in.names, p.Name)
		in.layers = append(in.layers, p.Layer)
		in.offsets = append(in.offsets, in.total)
		in.elems = append(in.elems, n)
		in.total += n
	}
	in.grads = make([][][]float32, ranks)
	for r := range in.grads {
		in.grads[r] = make([][]float32, variants)
		for v := range in.grads[r] {
			g := make([]float32, in.total)
			dyadic(g, seed, uint64(r*variants+v+1))
			in.grads[r][v] = g
		}
	}
	in.want = make([][]float32, variants)
	sum := make([]float64, in.total)
	for v := range in.want {
		clear(sum)
		for r := range in.grads {
			for i, x := range in.grads[r][v] {
				sum[i] += float64(x)
			}
		}
		w := make([]float32, in.total)
		for i, s := range sum {
			w[i] = float32(s / float64(ranks))
		}
		in.want[v] = w
	}
	in.weights = make([]float32, in.total)
	dyadic(in.weights, seed, 0)
	return in, nil
}

// mlpInputs are the generated minibatches of the MLP workload.
type mlpInputs struct {
	sizes   []int
	inputs  [][][][]float32 // [rank][batch][sample][feature]
	targets [][][][]float32
}

const (
	mlpBatch   = 64 // samples per rank per step
	mlpBatches = 8  // distinct minibatches each rank cycles through
)

func makeMLPInputs(ranks int, seed uint64) *mlpInputs {
	in := &mlpInputs{sizes: []int{784, 512, 256, 10}}
	nIn, nOut := in.sizes[0], in.sizes[len(in.sizes)-1]
	in.inputs = make([][][][]float32, ranks)
	in.targets = make([][][][]float32, ranks)
	for r := 0; r < ranks; r++ {
		rng := rand.New(rand.NewPCG(seed, uint64(1000+r)))
		for b := 0; b < mlpBatches; b++ {
			xs := make([][]float32, mlpBatch)
			ys := make([][]float32, mlpBatch)
			for s := range xs {
				x := make([]float32, nIn)
				for i := range x {
					x[i] = rng.Float32()
				}
				y := make([]float32, nOut)
				y[rng.IntN(nOut)] = 1
				xs[s], ys[s] = x, y
			}
			in.inputs[r] = append(in.inputs[r], xs)
			in.targets[r] = append(in.targets[r], ys)
		}
	}
	return in
}
