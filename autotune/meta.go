package autotune

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"aiacc/metrics"
)

// Tuner metrics (DESIGN.md §7): arm pulls and training iterations spent per
// searcher show how the §VI meta solver allocates its budget, new-best counts
// are its reward signal, and the best-config gauges expose where the search
// currently stands — the live counterpart of the TrialRecord trace.
var (
	mNewBest = metrics.NewCounter("aiacc_autotune_new_best_total",
		"Evaluations that set a new global best cost.")
	mBestCost = metrics.NewFloatGauge("aiacc_autotune_best_cost_seconds",
		"Best observed seconds per iteration.")
	mBestStreams = metrics.NewGauge("aiacc_autotune_best_streams",
		"Streams setting of the current best configuration.")
	mBestGranularity = metrics.NewGauge("aiacc_autotune_best_granularity_bytes",
		"Granularity of the current best configuration.")
	mBestSegment = metrics.NewGauge("aiacc_autotune_best_segment_bytes",
		"Ring wire-pipelining segment size of the current best configuration.")
	mBestNodeGroup = metrics.NewGauge("aiacc_autotune_best_gpus_per_node",
		"Hierarchy node-group size of the current best configuration (1 = flat).")
)

// armMetrics resolves the per-searcher instruments; names repeat across Meta
// instances, so the registry returns the same series for the same searcher.
func armMetrics(name string) (pulls, iters *metrics.Counter) {
	l := metrics.L("searcher", name)
	return metrics.NewCounter("aiacc_autotune_arm_pulls_total",
			"Evaluations allocated to each searcher by the meta solver.", l),
		metrics.NewCounter("aiacc_autotune_arm_iterations_total",
			"Training iterations spent by each searcher's proposals.", l)
}

// ErrBadBudget indicates a non-positive tuning budget.
var ErrBadBudget = errors.New("autotune: bad budget")

// TrialRecord logs one candidate evaluation for analysis (the bench harness
// prints these for the §VIII-D auto-tuning study).
type TrialRecord struct {
	// Searcher is the technique that proposed the candidate.
	Searcher string
	// Params is the evaluated setting.
	Params Params
	// Iters is the training iterations spent.
	Iters int
	// Cost is the measured seconds per iteration.
	Cost float64
	// NewBest marks a new global optimum.
	NewBest bool
}

// windowEntry is one sliding-window record for credit assignment.
type windowEntry struct {
	searcher int
	newBest  bool
}

// Meta is the multi-armed-bandit meta solver (§VI): it allocates the tuning
// budget among the ensemble's techniques, choosing at each step
//
//	argmax_t ( AUC_t + C·sqrt(2·ln|H| / H_t) )
//
// where AUC_t is the area-under-curve credit of technique t in the sliding
// history window H and the second term is the UCB exploration bonus.
type Meta struct {
	searchers []Searcher
	window    []windowEntry
	windowCap int
	c         float64

	best     Params
	bestCost float64
	started  bool
	trace    []TrialRecord
}

// Option configures a Meta solver.
type Option func(*Meta)

// WithWindow sets the sliding window length (default 50).
func WithWindow(n int) Option {
	return func(m *Meta) {
		if n > 0 {
			m.windowCap = n
		}
	}
}

// WithExploration sets the UCB constant C (default 0.2, the paper's value).
func WithExploration(c float64) Option {
	return func(m *Meta) {
		if c >= 0 {
			m.c = c
		}
	}
}

// NewMeta returns a meta solver over the given searchers.
func NewMeta(searchers []Searcher, opts ...Option) (*Meta, error) {
	if len(searchers) == 0 {
		return nil, errors.New("autotune: no searchers")
	}
	m := &Meta{searchers: searchers, windowCap: 50, c: 0.2, bestCost: math.Inf(1)}
	for _, o := range opts {
		o(m)
	}
	return m, nil
}

// DefaultEnsemble returns the paper's four techniques over the space, seeded
// deterministically.
func DefaultEnsemble(space Space, seed int64) []Searcher {
	return []Searcher{
		NewGrid(space),
		NewPBT(space, 4, rand.New(rand.NewSource(seed))),
		NewBayes(space, rand.New(rand.NewSource(seed+1))),
		NewHyperband(space, 3, 9, rand.New(rand.NewSource(seed+2))),
	}
}

// auc computes technique t's area-under-curve credit within the window: the
// curve steps up on every new-global-best the technique delivered and stays
// flat otherwise; the area is normalized to [0,1].
func (m *Meta) auc(t int) float64 {
	var uses, height int
	var area float64
	for _, e := range m.window {
		if e.searcher != t {
			continue
		}
		uses++
		if e.newBest {
			height++
		}
		area += float64(height)
	}
	if uses == 0 {
		return 0
	}
	max := float64(uses) * float64(uses+1) / 2 // all-improving upper bound
	return area / max
}

// pick selects the next technique by AUC + UCB score. Unused techniques are
// tried first.
func (m *Meta) pick() int {
	h := len(m.window)
	uses := make([]int, len(m.searchers))
	for _, e := range m.window {
		uses[e.searcher]++
	}
	bestT, bestScore := 0, math.Inf(-1)
	for t := range m.searchers {
		if uses[t] == 0 {
			return t
		}
		score := m.auc(t) + m.c*math.Sqrt(2*math.Log(float64(h))/float64(uses[t]))
		if score > bestScore {
			bestScore = score
			bestT = t
		}
	}
	return bestT
}

// Tune spends `budget` training iterations searching and returns the best
// parameters found. Every evaluation performs real training work via eval,
// so the warm-up budget contributes to model convergence (§VI).
func (m *Meta) Tune(eval Evaluator, budget int) (Params, error) {
	if budget <= 0 {
		return Params{}, fmt.Errorf("%w: %d iterations", ErrBadBudget, budget)
	}
	if eval == nil {
		return Params{}, errors.New("autotune: nil evaluator")
	}
	spent := 0
	for spent < budget {
		t := m.pick()
		prop := m.searchers[t].Propose(budget - spent)
		if prop.Iters < 1 {
			prop.Iters = 1
		}
		if prop.Iters > budget-spent {
			prop.Iters = budget - spent
		}
		cost := eval(prop.Params, prop.Iters)
		spent += prop.Iters
		pulls, iters := armMetrics(m.searchers[t].Name())
		pulls.Inc()
		iters.Add(int64(prop.Iters))
		newBest := cost < m.bestCost
		if newBest || !m.started {
			m.best = prop.Params
			m.bestCost = cost
			m.started = true
			mNewBest.Inc()
			mBestCost.Set(cost)
			mBestStreams.Set(int64(prop.Params.Streams))
			mBestGranularity.Set(prop.Params.GranularityBytes)
			mBestSegment.Set(prop.Params.SegmentBytes)
			mBestNodeGroup.Set(int64(prop.Params.GPUsPerNode))
		}
		m.searchers[t].Observe(prop, cost)
		m.window = append(m.window, windowEntry{searcher: t, newBest: newBest})
		if len(m.window) > m.windowCap {
			m.window = m.window[1:]
		}
		m.trace = append(m.trace, TrialRecord{
			Searcher: m.searchers[t].Name(),
			Params:   prop.Params,
			Iters:    prop.Iters,
			Cost:     cost,
			NewBest:  newBest,
		})
	}
	return m.best, nil
}

// Best returns the best parameters and cost observed so far.
func (m *Meta) Best() (Params, float64) { return m.best, m.bestCost }

// Trace returns the evaluation log.
func (m *Meta) Trace() []TrialRecord {
	out := make([]TrialRecord, len(m.trace))
	copy(out, m.trace)
	return out
}
