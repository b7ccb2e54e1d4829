// Package bench regenerates every table and figure of the paper's
// evaluation (§VII-§VIII) on the cluster simulator, plus the ablation
// studies called out in DESIGN.md. Each experiment returns a Table that the
// aiacc-bench command renders; EXPERIMENTS.md records the paper-vs-measured
// comparison.
package bench

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"text/tabwriter"
	"time"

	"aiacc/autotune"
	"aiacc/cluster"
	"aiacc/model"
	"aiacc/netmodel"
)

// GPUGrid is the GPU-count axis used by the paper's scaling figures.
var GPUGrid = []int{1, 8, 16, 32, 64, 128, 256}

// Table is one experiment's output.
type Table struct {
	// ID names the paper artifact (e.g. "fig9").
	ID string
	// Title describes the experiment.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the data cells.
	Rows [][]string
	// Notes records paper-vs-measured commentary.
	Notes []string
}

// Render formats the table as aligned text.
func Render(t Table) string {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "== %s: %s ==\n", t.ID, t.Title)
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	for i, h := range t.Header {
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		fmt.Fprint(w, h)
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				fmt.Fprint(w, "\t")
			}
			fmt.Fprint(w, c)
		}
		fmt.Fprintln(w)
	}
	_ = w.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(&buf, "note: %s\n", n)
	}
	return buf.String()
}

// RenderCSV formats the table as CSV (header row first) for plotting.
func RenderCSV(t Table) (string, error) {
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(t.Header); err != nil {
		return "", err
	}
	if err := w.WriteAll(t.Rows); err != nil {
		return "", err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// Suite runs the experiment set with shared state: the auto-tuner's
// parameter cache (so similar deployments warm-start, §VI) and memoized
// tuning results.
type Suite struct {
	cache *autotune.Cache
	tuned map[string]autotune.Params
	// TuneBudget is the per-deployment tuning budget in simulated training
	// iterations (paper default n=100).
	TuneBudget int
}

// NewSuite returns a fresh experiment suite.
func NewSuite() *Suite {
	return &Suite{
		cache:      autotune.NewCache(0),
		tuned:      make(map[string]autotune.Params),
		TuneBudget: 60,
	}
}

// baseConfig returns a deployment on the paper's V100 platform.
func baseConfig(m model.Model, gpus int, kind cluster.EngineKind) cluster.Config {
	cfg := cluster.Config{
		Topology: netmodel.V100Cluster(gpus),
		GPU:      cluster.V100(),
		Model:    m,
		Engine:   cluster.EngineDefaults(kind),
	}
	if kind == cluster.AIACC {
		cfg.Decentralized = true
	}
	return cfg
}

// simulate wraps cluster.Simulate.
func simulate(cfg cluster.Config) (cluster.Result, error) {
	return cluster.Simulate(cfg)
}

// hierarchical returns cfg with the AIACC engine's all-reduce grouped at the
// topology's node size through the tuned-params mapping, keeping its other
// parameters.
func hierarchical(cfg cluster.Config) cluster.Config {
	e := cfg.Engine
	cfg.Engine = cluster.ApplyParams(e, autotune.Params{
		Streams:          e.Streams,
		GranularityBytes: e.GranularityBytes,
		SegmentBytes:     e.SegmentBytes,
		GPUsPerNode:      cfg.Topology.GPUsPerNode,
	})
	return cfg
}

// Tuned returns auto-tuned AIACC parameters for the deployment, using the
// MAB meta-solver over the simulator and the GED warm-start cache.
func (s *Suite) Tuned(m model.Model, gpus int) (autotune.Params, error) {
	key := fmt.Sprintf("%s/%d", m.Name, gpus)
	if p, ok := s.tuned[key]; ok {
		return p, nil
	}
	topo := netmodel.V100Cluster(gpus)
	space := autotune.DefaultSpace()
	if p, _, ok := s.cache.Lookup(m, topo); ok {
		// Warm start: narrow the search around the cached optimum.
		space = neighborhood(space, p)
	}
	eval := func(p autotune.Params, iters int) float64 {
		cfg := baseConfig(m, gpus, cluster.AIACC)
		cfg.Engine = cluster.ApplyParams(cfg.Engine, p)
		res, err := cluster.Simulate(cfg)
		if err != nil {
			return 1e9 // invalid points are maximally bad
		}
		return res.IterTime.Seconds()
	}
	meta, err := autotune.NewMeta(autotune.DefaultEnsemble(space, 42))
	if err != nil {
		return autotune.Params{}, err
	}
	best, err := meta.Tune(eval, s.TuneBudget)
	if err != nil {
		return autotune.Params{}, err
	}
	s.tuned[key] = best
	s.cache.Store(m, topo, best)
	return best, nil
}

// neighborhood restricts the space to ±1 steps around p in each dimension.
func neighborhood(s autotune.Space, p autotune.Params) autotune.Space {
	pick := func(n int) autotune.Space { return s } // fallback if p not in space
	if s.Index(p) < 0 {
		return pick(0)
	}
	var sub autotune.Space
	for _, dir := range []int{-1, 0, 1} {
		q := s.Neighbor(p, autotune.DimStreams, dir)
		if len(sub.Streams) == 0 || sub.Streams[len(sub.Streams)-1] != q.Streams {
			sub.Streams = append(sub.Streams, q.Streams)
		}
		q = s.Neighbor(p, autotune.DimGranularity, dir)
		if len(sub.Granularities) == 0 || sub.Granularities[len(sub.Granularities)-1] != q.GranularityBytes {
			sub.Granularities = append(sub.Granularities, q.GranularityBytes)
		}
		q = s.Neighbor(p, autotune.DimSegment, dir)
		if len(sub.Segments) == 0 || sub.Segments[len(sub.Segments)-1] != q.SegmentBytes {
			sub.Segments = append(sub.Segments, q.SegmentBytes)
		}
		q = s.Neighbor(p, autotune.DimNodeGroup, dir)
		if len(sub.NodeGroups) == 0 || sub.NodeGroups[len(sub.NodeGroups)-1] != q.GPUsPerNode {
			sub.NodeGroups = append(sub.NodeGroups, q.GPUsPerNode)
		}
	}
	return sub
}

// aiaccTuned simulates an auto-tuned AIACC deployment.
func (s *Suite) aiaccTuned(m model.Model, gpus int) (cluster.Result, autotune.Params, error) {
	p, err := s.Tuned(m, gpus)
	if err != nil {
		return cluster.Result{}, p, err
	}
	cfg := baseConfig(m, gpus, cluster.AIACC)
	cfg.Engine = cluster.ApplyParams(cfg.Engine, p)
	res, err := simulate(cfg)
	return res, p, err
}

func fmtTput(v float64) string { return fmt.Sprintf("%.0f", v) }

func fmtX(v float64) string { return fmt.Sprintf("%.2fx", v) }

func fmtDur(d time.Duration) string { return d.Round(time.Microsecond).String() }

func fmtMicros(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1e6) }
