package autotune

import (
	"math"
	"math/rand"
)

// Bayes is Bayesian optimization [26] over the normalized parameter space: a
// Gaussian-process surrogate with an RBF kernel fitted to the observed
// costs, maximizing expected improvement (EI) over the discrete candidates.
// Implemented from scratch on a dense Cholesky factorization.
type Bayes struct {
	space Space
	rng   *rand.Rand

	xs [][5]float64
	ys []float64

	lengthScale float64
	noise       float64
	seedPoints  int
}

var _ Searcher = (*Bayes)(nil)

// NewBayes returns a Bayesian-optimization searcher.
func NewBayes(space Space, rng *rand.Rand) *Bayes {
	return &Bayes{
		space:       space,
		rng:         rng,
		lengthScale: 0.3,
		noise:       1e-4,
		seedPoints:  3,
	}
}

// Name implements Searcher.
func (b *Bayes) Name() string { return "bayes" }

// Propose implements Searcher.
func (b *Bayes) Propose(int) Proposal {
	if len(b.xs) < b.seedPoints {
		// Bootstrap with quasi-uniform coverage.
		idx := b.rng.Intn(b.space.Size())
		return Proposal{Params: b.space.At(idx), Iters: 1}
	}
	best := b.space.At(0)
	bestEI := math.Inf(-1)
	mu, sigma, ok := b.fit()
	if !ok {
		return Proposal{Params: b.space.At(b.rng.Intn(b.space.Size())), Iters: 1}
	}
	yBest := math.Inf(1)
	for _, y := range b.ys {
		if y < yBest {
			yBest = y
		}
	}
	for i := 0; i < b.space.Size(); i++ {
		p := b.space.At(i)
		m, s := mu(b.space.Normalize(p)), sigma(b.space.Normalize(p))
		ei := expectedImprovement(yBest, m, s)
		if ei > bestEI {
			bestEI = ei
			best = p
		}
	}
	return Proposal{Params: best, Iters: 1}
}

// Observe implements Searcher.
func (b *Bayes) Observe(prop Proposal, cost float64) {
	b.xs = append(b.xs, b.space.Normalize(prop.Params))
	b.ys = append(b.ys, cost)
}

// rbf is the squared-exponential kernel.
func (b *Bayes) rbf(x, y [5]float64) float64 {
	var d2 float64
	for i := range x {
		d := x[i] - y[i]
		d2 += d * d
	}
	return math.Exp(-d2 / (2 * b.lengthScale * b.lengthScale))
}

// fit returns posterior mean and stddev functions for the current
// observations, or ok=false if the kernel matrix is not positive definite.
func (b *Bayes) fit() (mu func([5]float64) float64, sigma func([5]float64) float64, ok bool) {
	n := len(b.xs)
	// Standardize targets.
	mean := 0.0
	for _, y := range b.ys {
		mean += y
	}
	mean /= float64(n)
	sd := 0.0
	for _, y := range b.ys {
		sd += (y - mean) * (y - mean)
	}
	sd = math.Sqrt(sd / float64(n))
	if sd == 0 {
		sd = 1
	}
	yn := make([]float64, n)
	for i, y := range b.ys {
		yn[i] = (y - mean) / sd
	}

	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := range k[i] {
			k[i][j] = b.rbf(b.xs[i], b.xs[j])
		}
		k[i][i] += b.noise
	}
	chol, ok := cholesky(k)
	if !ok {
		return nil, nil, false
	}
	alpha := cholSolve(chol, yn)

	mu = func(x [5]float64) float64 {
		var s float64
		for i := 0; i < n; i++ {
			s += b.rbf(x, b.xs[i]) * alpha[i]
		}
		return s*sd + mean
	}
	sigma = func(x [5]float64) float64 {
		kx := make([]float64, n)
		for i := 0; i < n; i++ {
			kx[i] = b.rbf(x, b.xs[i])
		}
		v := cholForward(chol, kx)
		var vv float64
		for _, e := range v {
			vv += e * e
		}
		variance := 1 + b.noise - vv
		if variance < 1e-12 {
			variance = 1e-12
		}
		return math.Sqrt(variance) * sd
	}
	return mu, sigma, true
}

// expectedImprovement for minimization.
func expectedImprovement(yBest, mu, sigma float64) float64 {
	if sigma <= 0 {
		return 0
	}
	z := (yBest - mu) / sigma
	return (yBest-mu)*normCDF(z) + sigma*normPDF(z)
}

func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// cholesky returns the lower-triangular factor L with A = L·Lᵀ.
func cholesky(a [][]float64) ([][]float64, bool) {
	n := len(a)
	l := make([][]float64, n)
	for i := range l {
		l[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a[i][j]
			for k := 0; k < j; k++ {
				sum -= l[i][k] * l[j][k]
			}
			if i == j {
				if sum <= 0 {
					return nil, false
				}
				l[i][i] = math.Sqrt(sum)
			} else {
				l[i][j] = sum / l[j][j]
			}
		}
	}
	return l, true
}

// cholForward solves L·v = b.
func cholForward(l [][]float64, b []float64) []float64 {
	n := len(l)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		sum := b[i]
		for k := 0; k < i; k++ {
			sum -= l[i][k] * v[k]
		}
		v[i] = sum / l[i][i]
	}
	return v
}

// cholSolve solves L·Lᵀ·x = b.
func cholSolve(l [][]float64, b []float64) []float64 {
	n := len(l)
	v := cholForward(l, b)
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := v[i]
		for k := i + 1; k < n; k++ {
			sum -= l[k][i] * x[k]
		}
		x[i] = sum / l[i][i]
	}
	return x
}
