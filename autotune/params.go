// Package autotune finds the gradient-communication hyper-parameters of
// AIACC-Training at runtime (§VI): the number of concurrent communication
// streams, the all-reduce unit granularity, the all-reduce algorithm, the
// ring wire-pipelining segment size and the hierarchy topology (GPUs per
// node group).
//
// The search problem is formulated as a multi-armed bandit over an ensemble
// of search techniques — grid search, population based training, Bayesian
// optimization and Hyperband — coordinated by a meta solver with a sliding
// window and AUC credit assignment (the OpenTuner-style bandit of [28]).
// Every candidate evaluation runs real training iterations, so the warm-up
// budget also contributes training progress and no computation is wasted.
//
// Previously found settings are cached keyed by the DNN computation graph
// and the network topology graph; a new deployment warm-starts from the
// most similar cache entry under graph edit distance (package ged).
package autotune

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadSpace indicates an empty or inconsistent search space.
var ErrBadSpace = errors.New("autotune: bad search space")

// Algorithm names searched by the tuner.
const (
	AlgoRing = "ring"
	AlgoTree = "tree"
)

// Params is one point in the communication-parameter space.
type Params struct {
	// Streams is the number of concurrent communication streams.
	Streams int
	// GranularityBytes is the all-reduce unit size.
	GranularityBytes int64
	// Algorithm is AlgoRing or AlgoTree.
	Algorithm string
	// SegmentBytes is the ring wire-pipelining segment size (fp32 data bytes
	// per wire frame).
	SegmentBytes int64
	// GPUsPerNode is the hierarchy topology for AlgoTree: ranks per node
	// group of the two-level schedule. 1 means flat (every rank its own
	// node — the tree degenerates to the ring); ignored by AlgoRing.
	GPUsPerNode int
}

// String implements fmt.Stringer.
func (p Params) String() string {
	return fmt.Sprintf("{streams=%d granularity=%dKiB algo=%s segment=%dKiB perNode=%d}",
		p.Streams, p.GranularityBytes>>10, p.Algorithm, p.SegmentBytes>>10, p.GPUsPerNode)
}

// Space is the discrete search space.
type Space struct {
	// Streams lists candidate stream counts, ascending.
	Streams []int
	// Granularities lists candidate unit sizes in bytes, ascending.
	Granularities []int64
	// Algorithms lists candidate all-reduce algorithms.
	Algorithms []string
	// Segments lists candidate ring pipelining segment sizes in bytes,
	// ascending.
	Segments []int64
	// NodeGroups lists candidate GPUsPerNode values for the hierarchical
	// algorithm, ascending. Values that do not divide the world size are
	// sanitized by the evaluator, not the space.
	NodeGroups []int
}

// DefaultSpace returns the space AIACC-Training searches in production:
// 2-24 streams (§VIII-D), 512 KiB - 64 MiB units, ring and tree all-reduce,
// 64 KiB - 4 MiB wire segments, and node groups of 1 (flat) to 8.
func DefaultSpace() Space {
	return Space{
		Streams:       []int{1, 2, 4, 8, 12, 16, 24},
		Granularities: []int64{512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20, 16 << 20, 32 << 20, 64 << 20},
		Algorithms:    []string{AlgoRing, AlgoTree},
		Segments:      []int64{64 << 10, 128 << 10, 256 << 10, 1 << 20, 4 << 20},
		NodeGroups:    []int{1, 2, 4, 8},
	}
}

// Validate checks the space is non-empty in every dimension.
func (s Space) Validate() error {
	if len(s.Streams) == 0 || len(s.Granularities) == 0 || len(s.Algorithms) == 0 ||
		len(s.Segments) == 0 || len(s.NodeGroups) == 0 {
		return fmt.Errorf("%w: %d streams x %d granularities x %d algorithms x %d segments x %d node groups",
			ErrBadSpace, len(s.Streams), len(s.Granularities), len(s.Algorithms), len(s.Segments), len(s.NodeGroups))
	}
	return nil
}

// Size returns the number of points.
func (s Space) Size() int {
	return len(s.Streams) * len(s.Granularities) * len(s.Algorithms) * len(s.Segments) *
		len(s.NodeGroups)
}

// At returns point i in lexicographic (algorithm, streams, granularity,
// segment, node group) order; i is taken modulo Size.
func (s Space) At(i int) Params {
	n := s.Size()
	i = ((i % n) + n) % n
	ng := i % len(s.NodeGroups)
	i /= len(s.NodeGroups)
	sg := i % len(s.Segments)
	i /= len(s.Segments)
	g := i % len(s.Granularities)
	i /= len(s.Granularities)
	st := i % len(s.Streams)
	i /= len(s.Streams)
	a := i % len(s.Algorithms)
	return Params{
		Streams:          s.Streams[st],
		GranularityBytes: s.Granularities[g],
		Algorithm:        s.Algorithms[a],
		SegmentBytes:     s.Segments[sg],
		GPUsPerNode:      s.NodeGroups[ng],
	}
}

// Index returns the lexicographic index of p, or -1 if p is not in the
// space.
func (s Space) Index(p Params) int {
	st := indexOfInt(s.Streams, p.Streams)
	g := indexOfInt64(s.Granularities, p.GranularityBytes)
	a := indexOfString(s.Algorithms, p.Algorithm)
	sg := indexOfInt64(s.Segments, p.SegmentBytes)
	ng := indexOfInt(s.NodeGroups, p.GPUsPerNode)
	if st < 0 || g < 0 || a < 0 || sg < 0 || ng < 0 {
		return -1
	}
	return (((a*len(s.Streams)+st)*len(s.Granularities)+g)*len(s.Segments)+sg)*len(s.NodeGroups) + ng
}

// Neighbor returns p with one dimension moved by one step (dim in 0..4,
// dir ±1), clamped to the space — the PBT explore move.
func (s Space) Neighbor(p Params, dim, dir int) Params {
	switch dim {
	case 0:
		i := clamp(indexOfInt(s.Streams, p.Streams)+dir, 0, len(s.Streams)-1)
		p.Streams = s.Streams[i]
	case 1:
		i := clamp(indexOfInt64(s.Granularities, p.GranularityBytes)+dir, 0, len(s.Granularities)-1)
		p.GranularityBytes = s.Granularities[i]
	case 2:
		i := clamp(indexOfString(s.Algorithms, p.Algorithm)+dir, 0, len(s.Algorithms)-1)
		p.Algorithm = s.Algorithms[i]
	case 3:
		i := clamp(indexOfInt64(s.Segments, p.SegmentBytes)+dir, 0, len(s.Segments)-1)
		p.SegmentBytes = s.Segments[i]
	default:
		i := clamp(indexOfInt(s.NodeGroups, p.GPUsPerNode)+dir, 0, len(s.NodeGroups)-1)
		p.GPUsPerNode = s.NodeGroups[i]
	}
	return p
}

// Normalize maps p to [0,1]^5 for the Bayesian optimizer's kernel: log-scale
// positions within each numeric dimension.
func (s Space) Normalize(p Params) [5]float64 {
	var v [5]float64
	if len(s.Streams) > 1 {
		v[0] = logPos(float64(p.Streams), float64(s.Streams[0]), float64(s.Streams[len(s.Streams)-1]))
	}
	if len(s.Granularities) > 1 {
		v[1] = logPos(float64(p.GranularityBytes), float64(s.Granularities[0]), float64(s.Granularities[len(s.Granularities)-1]))
	}
	if i := indexOfString(s.Algorithms, p.Algorithm); i > 0 && len(s.Algorithms) > 1 {
		v[2] = float64(i) / float64(len(s.Algorithms)-1)
	}
	if len(s.Segments) > 1 {
		v[3] = logPos(float64(p.SegmentBytes), float64(s.Segments[0]), float64(s.Segments[len(s.Segments)-1]))
	}
	if len(s.NodeGroups) > 1 {
		v[4] = logPos(float64(p.GPUsPerNode), float64(s.NodeGroups[0]), float64(s.NodeGroups[len(s.NodeGroups)-1]))
	}
	return v
}

func logPos(x, lo, hi float64) float64 {
	if hi <= lo || x <= 0 {
		return 0
	}
	return (math.Log(x) - math.Log(lo)) / (math.Log(hi) - math.Log(lo))
}

func clamp(i, lo, hi int) int {
	if i < lo {
		return lo
	}
	if i > hi {
		return hi
	}
	return i
}

func indexOfInt(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexOfInt64(xs []int64, x int64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func indexOfString(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// Proposal is one candidate evaluation request: run Iters training
// iterations with Params and report the mean per-iteration cost.
type Proposal struct {
	// Params is the candidate setting.
	Params Params
	// Iters is the number of training iterations to spend.
	Iters int
}

// Evaluator runs iters training iterations under p and returns the mean
// seconds per iteration (lower is better).
type Evaluator func(p Params, iters int) float64

// Searcher is one technique in the ensemble.
type Searcher interface {
	// Name identifies the technique.
	Name() string
	// Propose returns the next candidate; remaining is the unspent tuning
	// budget in iterations.
	Propose(remaining int) Proposal
	// Observe reports the evaluated cost of a prior proposal.
	Observe(p Proposal, cost float64)
}
