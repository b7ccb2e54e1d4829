// ImageNet scaling study: reproduce the paper's headline CV result on the
// cluster simulator — ResNet-50 and VGG-16 throughput from 1 to 256 V100
// GPUs, AIACC (auto-tuned) against Horovod, PyTorch-DDP and BytePS, on the
// 30 Gbps VPC of the paper's evaluation platform.
//
//	go run ./examples/imagenet
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"aiacc/autotune"
	"aiacc/cluster"
	"aiacc/model"
	"aiacc/netmodel"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "imagenet:", err)
		os.Exit(1)
	}
}

func run() error {
	for _, m := range []model.Model{model.ResNet50(), model.VGG16()} {
		fmt.Printf("=== %s (%.1fM params, batch %d/GPU, ImageNet-shaped input) ===\n",
			m.Name, float64(m.NumParams())/1e6, m.DefaultBatch)
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "gpus\taiacc img/s\thorovod\tpytorch-ddp\tbyteps\taiacc eff\taiacc params")

		single, err := simulate(m, 1, cluster.AIACC, autotune.Params{})
		if err != nil {
			return err
		}
		for _, gpus := range []int{1, 8, 16, 32, 64, 128, 256} {
			tuned, err := tune(m, gpus)
			if err != nil {
				return err
			}
			ai, err := simulate(m, gpus, cluster.AIACC, tuned)
			if err != nil {
				return err
			}
			hv, err := simulate(m, gpus, cluster.Horovod, autotune.Params{})
			if err != nil {
				return err
			}
			dd, err := simulate(m, gpus, cluster.PyTorchDDP, autotune.Params{})
			if err != nil {
				return err
			}
			bp, err := simulate(m, gpus, cluster.BytePS, autotune.Params{})
			if err != nil {
				return err
			}
			eff := ai.Throughput / (float64(gpus) * single.Throughput)
			fmt.Fprintf(w, "%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f%%\t%v\n",
				gpus, ai.Throughput, hv.Throughput, dd.Throughput, bp.Throughput, eff*100, tuned)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Println()
	}
	fmt.Println("paper shape: AIACC ≥95% efficiency on ResNet-50@256; VGG-16 (communication-bound)")
	fmt.Println("shows the largest gap; BytePS without extra CPU servers trails everything.")
	return nil
}

// tune runs a short §VI parameter search for the deployment.
func tune(m model.Model, gpus int) (autotune.Params, error) {
	if gpus == 1 {
		return autotune.Params{Streams: 1, GranularityBytes: 8 << 20, SegmentBytes: 256 << 10}, nil
	}
	eval := func(p autotune.Params, iters int) float64 {
		res, err := simulate(m, gpus, cluster.AIACC, p)
		if err != nil {
			return 1e9
		}
		return res.IterTime.Seconds()
	}
	meta, err := autotune.NewMeta(autotune.DefaultEnsemble(autotune.DefaultSpace(), 42))
	if err != nil {
		return autotune.Params{}, err
	}
	return meta.Tune(eval, 40)
}

func simulate(m model.Model, gpus int, kind cluster.EngineKind, p autotune.Params) (cluster.Result, error) {
	cfg := cluster.Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      cluster.V100(),
		Model:    m,
		Engine:   cluster.EngineDefaults(kind),
	}
	if kind == cluster.AIACC {
		cfg.Decentralized = true
		if p.Streams > 0 {
			cfg.Engine = cluster.ApplyParams(cfg.Engine, p)
		}
	}
	return cluster.Simulate(cfg)
}
