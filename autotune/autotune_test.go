package autotune

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"aiacc/model"
	"aiacc/netmodel"
)

// syntheticCost builds a smooth cost surface over the space with a known
// optimum, plus deterministic pseudo-noise.
func syntheticCost(space Space, opt Params) Evaluator {
	target := space.Normalize(opt)
	return func(p Params, iters int) float64 {
		x := space.Normalize(p)
		var d2 float64
		for i := range x {
			d := x[i] - target[i]
			d2 += d * d
		}
		// Mild deterministic ripple so searchers see realistic structure.
		ripple := 0.01 * math.Sin(13*x[DimStreams]+7*x[DimGranularity]+5*x[DimSegment]+11*x[DimNodeGroup])
		return 0.1 + d2 + ripple
	}
}

func TestSpaceBasics(t *testing.T) {
	s := DefaultSpace()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 7*8*5*4 {
		t.Errorf("Size = %d, want 1120", s.Size())
	}
	// At/Index round-trip over the full space.
	for i := 0; i < s.Size(); i++ {
		p := s.At(i)
		if got := s.Index(p); got != i {
			t.Fatalf("Index(At(%d)) = %d", i, got)
		}
	}
	// Wrap-around and negative indices.
	if s.At(s.Size()) != s.At(0) || s.At(-1) != s.At(s.Size()-1) {
		t.Error("At must wrap modulo Size")
	}
	if s.Index(Params{Streams: 3, GranularityBytes: 1}) != -1 {
		t.Error("Index of foreign point must be -1")
	}
	if err := (Space{}).Validate(); !errors.Is(err, ErrBadSpace) {
		t.Errorf("empty space error = %v", err)
	}
}

func TestSpaceNeighbor(t *testing.T) {
	s := DefaultSpace()
	p := Params{Streams: 8, GranularityBytes: 8 << 20, SegmentBytes: 256 << 10, GPUsPerNode: 1}
	up := s.Neighbor(p, DimStreams, 1)
	if up.Streams != 12 {
		t.Errorf("streams neighbor = %d, want 12", up.Streams)
	}
	down := s.Neighbor(p, DimGranularity, -1)
	if down.GranularityBytes != 4<<20 {
		t.Errorf("granularity neighbor = %d", down.GranularityBytes)
	}
	seg := s.Neighbor(p, DimSegment, 1)
	if seg.SegmentBytes != 1<<20 {
		t.Errorf("segment neighbor = %d", seg.SegmentBytes)
	}
	if grp := s.Neighbor(p, DimNodeGroup, 1); grp.GPUsPerNode != 2 {
		t.Errorf("node-group neighbor = %d, want 2", grp.GPUsPerNode)
	}
	// Clamping at the boundary.
	edge := Params{Streams: 24, GranularityBytes: 64 << 20, SegmentBytes: 4 << 20, GPUsPerNode: 8}
	if got := s.Neighbor(edge, DimStreams, 1); got.Streams != 24 {
		t.Error("neighbor must clamp at the top")
	}
	if got := s.Neighbor(edge, DimSegment, 1); got.SegmentBytes != 4<<20 {
		t.Error("segment neighbor must clamp at the top")
	}
	if got := s.Neighbor(edge, DimNodeGroup, 1); got.GPUsPerNode != 8 {
		t.Error("node-group neighbor must clamp at the top")
	}
}

func TestNormalizeRange(t *testing.T) {
	s := DefaultSpace()
	for i := 0; i < s.Size(); i++ {
		v := s.Normalize(s.At(i))
		for d := range v {
			if v[d] < 0 || v[d] > 1 {
				t.Fatalf("Normalize(%v)[%d] = %v out of [0,1]", s.At(i), d, v[d])
			}
		}
	}
	lo := s.Normalize(Params{Streams: 1, GranularityBytes: 512 << 10, SegmentBytes: 64 << 10, GPUsPerNode: 1})
	hi := s.Normalize(Params{Streams: 24, GranularityBytes: 64 << 20, SegmentBytes: 4 << 20, GPUsPerNode: 8})
	if lo != [Dims]float64{0, 0, 0, 0} {
		t.Errorf("low corner = %v", lo)
	}
	if hi != [Dims]float64{1, 1, 1, 1} {
		t.Errorf("high corner = %v", hi)
	}
}

// Every individual searcher must approach a known optimum within a modest
// budget on the synthetic surface.
func TestSearchersConverge(t *testing.T) {
	space := DefaultSpace()
	opt := Params{Streams: 8, GranularityBytes: 8 << 20, SegmentBytes: 256 << 10, GPUsPerNode: 1}
	eval := syntheticCost(space, opt)
	mk := map[string]func() Searcher{
		"grid":      func() Searcher { return NewGrid(space) },
		"pbt":       func() Searcher { return NewPBT(space, 4, rand.New(rand.NewSource(1))) },
		"bayes":     func() Searcher { return NewBayes(space, rand.New(rand.NewSource(2))) },
		"hyperband": func() Searcher { return NewHyperband(space, 3, 9, rand.New(rand.NewSource(3))) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			s := f()
			if s.Name() != name {
				t.Errorf("Name = %q, want %q", s.Name(), name)
			}
			bestCost := math.Inf(1)
			// The segment and topology dimensions grew the space 20x: the
			// lexicographic grid sweep needs enough budget to reach the
			// optimum's region, and hyperband's random sampling
			// proportionally more draws; the model-guided searchers converge
			// on the standard budget.
			budget := 120
			switch name {
			case "grid":
				budget = 640
			case "hyperband":
				budget = 360
			}
			spent := 0
			for spent < budget {
				prop := s.Propose(budget - spent)
				if prop.Iters < 1 {
					prop.Iters = 1
				}
				cost := eval(prop.Params, prop.Iters)
				spent += prop.Iters
				if cost < bestCost {
					bestCost = cost
				}
				s.Observe(prop, cost)
			}
			// The optimum has cost ~0.1; demand within 0.15 of it.
			if bestCost > 0.25 {
				t.Errorf("best cost = %.3f after %d iters, want <= 0.25", bestCost, spent)
			}
		})
	}
}

func TestMetaFindsOptimum(t *testing.T) {
	space := DefaultSpace()
	opt := Params{Streams: 12, GranularityBytes: 4 << 20, SegmentBytes: 128 << 10}
	eval := syntheticCost(space, opt)
	m, err := NewMeta(DefaultEnsemble(space, 42))
	if err != nil {
		t.Fatal(err)
	}
	best, err := m.Tune(eval, 100)
	if err != nil {
		t.Fatal(err)
	}
	// The found point must be close to the optimum on the surface.
	bx, ox := space.Normalize(best), space.Normalize(opt)
	var d2 float64
	for i := 0; i < 4; i++ {
		d := bx[i] - ox[i]
		d2 += d * d
	}
	if d2 > 0.1 {
		t.Errorf("best %v too far from optimum %v (d²=%.3f)", best, opt, d2)
	}
	_, cost := m.Best()
	if cost > 0.25 {
		t.Errorf("best cost = %.3f", cost)
	}
	// The trace must account for the full budget and mark improvements.
	trace := m.Trace()
	total := 0
	sawBest := false
	usedSearchers := map[string]bool{}
	for _, r := range trace {
		total += r.Iters
		usedSearchers[r.Searcher] = true
		if r.NewBest {
			sawBest = true
		}
	}
	if total != 100 {
		t.Errorf("trace accounts for %d iters, want 100", total)
	}
	if !sawBest {
		t.Error("no NewBest records")
	}
	// The bandit must have tried every technique at least once.
	if len(usedSearchers) != 4 {
		t.Errorf("techniques used = %v, want all 4", usedSearchers)
	}
}

func TestMetaBudgetValidation(t *testing.T) {
	m, err := NewMeta(DefaultEnsemble(DefaultSpace(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Tune(func(Params, int) float64 { return 1 }, 0); !errors.Is(err, ErrBadBudget) {
		t.Errorf("zero budget error = %v", err)
	}
	if _, err := m.Tune(nil, 10); err == nil {
		t.Error("nil evaluator must fail")
	}
	if _, err := NewMeta(nil); err == nil {
		t.Error("empty ensemble must fail")
	}
}

func TestMetaDeterminism(t *testing.T) {
	space := DefaultSpace()
	eval := syntheticCost(space, Params{Streams: 4, GranularityBytes: 2 << 20})
	run := func() Params {
		m, err := NewMeta(DefaultEnsemble(space, 7))
		if err != nil {
			t.Fatal(err)
		}
		best, err := m.Tune(eval, 60)
		if err != nil {
			t.Fatal(err)
		}
		return best
	}
	if run() != run() {
		t.Error("tuning with the same seed must be deterministic")
	}
}

func TestMetaOptions(t *testing.T) {
	m, err := NewMeta(DefaultEnsemble(DefaultSpace(), 1), WithWindow(10), WithExploration(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if m.windowCap != 10 || m.c != 0.5 {
		t.Errorf("options not applied: window=%d c=%v", m.windowCap, m.c)
	}
}

func TestCacheWarmStart(t *testing.T) {
	c := NewCache(0)
	rn50 := model.ResNet50()
	topo32 := netmodel.V100Cluster(32)
	tuned := Params{Streams: 8, GranularityBytes: 8 << 20, SegmentBytes: 256 << 10}
	c.Store(rn50, topo32, tuned)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}

	// Identical deployment: exact hit at distance 0.
	p, dist, ok := c.Lookup(rn50, topo32)
	if !ok || p != tuned || dist != 0 {
		t.Errorf("identical lookup = %v, %v, %v", p, dist, ok)
	}

	// Same model, same node shape, one more node: still similar.
	p, _, ok = c.Lookup(rn50, netmodel.V100Cluster(40))
	if !ok || p != tuned {
		t.Errorf("near lookup failed: %v %v", p, ok)
	}

	// Completely different model and a much bigger cluster: rejected.
	_, dist, ok = c.Lookup(model.CTR(), netmodel.V100Cluster(256))
	if ok {
		t.Errorf("dissimilar lookup accepted at distance %v", dist)
	}
}

func TestCachePrefersNearest(t *testing.T) {
	c := NewCache(1e9) // accept anything; test ordering only
	pSmall := Params{Streams: 2, GranularityBytes: 1 << 20}
	pBig := Params{Streams: 24, GranularityBytes: 32 << 20}
	c.Store(model.ResNet50(), netmodel.V100Cluster(8), pSmall)
	c.Store(model.ResNet50(), netmodel.V100Cluster(256), pBig)
	got, _, ok := c.Lookup(model.ResNet50(), netmodel.V100Cluster(240))
	if !ok || got != pBig {
		t.Errorf("nearest lookup = %v, want big-cluster params", got)
	}
	got, _, ok = c.Lookup(model.ResNet50(), netmodel.V100Cluster(8))
	if !ok || got != pSmall {
		t.Errorf("nearest lookup = %v, want small-cluster params", got)
	}
}

func TestModelGraphCompression(t *testing.T) {
	// The CTR model's 4096 identical embedding layers must collapse to a
	// handful of nodes, keeping GED tractable.
	g := ModelGraph(model.CTR())
	if g.Nodes() > 32 {
		t.Errorf("CTR model graph has %d nodes, want few after merging", g.Nodes())
	}
	// Distinct architectures produce distinct graphs.
	rn := ModelGraph(model.ResNet50())
	if rn.Nodes() == g.Nodes() && rn.Edges() == g.Edges() {
		t.Error("ResNet-50 and CTR graphs should differ structurally")
	}
}
