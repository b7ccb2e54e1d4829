package main

import (
	"time"

	"aiacc/compress"
	"aiacc/model"
	"aiacc/netmodel"
	"aiacc/transport"
	"aiacc/transport/shmnet"
)

// spec is one benchmark workload. Every workload keeps the engine's tuning
// knobs (streams, granularity, segment size) at engine.DefaultConfig() and
// sets only deployment facts: transport, world size, algorithm and
// gpus-per-node, and codec.
type spec struct {
	name string
	// ranks is the world size; all ranks are goroutines of this process.
	ranks int
	// zoo is the model whose gradient tensors are reduced; nil selects the
	// real MLP training task.
	zoo func() model.Model
	// divisor scales every zoo tensor's element count down.
	divisor int
	// backward paces pushes over an emulated backward pass of this length,
	// each tensor at its model.BackwardSchedule fraction; 0 pushes back to
	// back.
	backward time.Duration
	codec    compress.Codec
	// gpusPerNode > 0 selects the hierarchical all-reduce.
	gpusPerNode int
	// tailPct is the iter_tail_ms percentile; lowered at run time if fewer
	// than ten samples lie beyond it.
	tailPct float64
	net     func(ranks, streams int) (transport.Network, error)
}

// slowLink is a 2.5 Gbps TCP link, slow enough that ResNet-50's scaled gradients take
// about as long to all-reduce at the default stream count as the emulated
// backward pass takes to produce them, with the paper's 30% single-stream
// efficiency (§III).
func slowLink() netmodel.Link {
	l := netmodel.TCP30Gbps()
	l.CapacityGbps = 2.5
	return l
}

var specs = []spec{
	{
		name:     "resnet50-slowlink",
		ranks:    4,
		zoo:      model.ResNet50,
		divisor:  16,
		backward: 80 * time.Millisecond,
		codec:    compress.FP32{},
		tailPct:  90,
		net: func(ranks, streams int) (transport.Network, error) {
			return transport.NewMem(ranks, streams, transport.WithModeledLink(slowLink()))
		},
	},
	{
		name:    "ctr-4k-tensors",
		ranks:   4,
		zoo:     model.CTR,
		divisor: 1024,
		codec:   compress.FP32{},
		tailPct: 99,
		net: func(ranks, streams int) (transport.Network, error) {
			return transport.NewMem(ranks, streams)
		},
	},
	{
		name:        "vgg16-twotier-fp16",
		ranks:       4,
		zoo:         model.VGG16,
		divisor:     64,
		codec:       compress.FP16{},
		gpusPerNode: 2,
		tailPct:     95,
		net:         twoTier,
	},
	{
		name:    "mlp-train-tcp",
		ranks:   2,
		codec:   compress.FP32{},
		tailPct: 90,
		net: func(ranks, streams int) (transport.Network, error) {
			return transport.NewTCP(ranks, streams)
		},
	},
}

// twoTier builds hosts of two ranks each (one rank for a one-rank world):
// shared-memory rings inside a host and TCP loopback between hosts.
func twoTier(ranks, streams int) (transport.Network, error) {
	perHost := min(2, ranks)
	var intra []transport.Network
	closeAll := func() {
		for _, n := range intra {
			_ = n.Close()
		}
	}
	for h := 0; h < ranks/perHost; h++ {
		n, err := shmnet.New(perHost, streams)
		if err != nil {
			closeAll()
			return nil, err
		}
		intra = append(intra, n)
	}
	inter, err := transport.NewTCP(ranks, streams)
	if err != nil {
		closeAll()
		return nil, err
	}
	net, err := transport.NewTwoTier(perHost, intra, inter)
	if err != nil {
		closeAll()
		_ = inter.Close()
		return nil, err
	}
	return net, nil
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// batch is the per-rank samples of one iteration: the zoo model's
// DefaultBatch, or the MLP's real minibatch.
func (s spec) batch() int {
	if s.zoo == nil {
		return mlpBatch
	}
	return s.zoo().DefaultBatch
}
