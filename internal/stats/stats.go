// Package stats provides the small statistical toolkit the experiment
// harness uses: mean/stdev accumulators, Welch's t-test, and formatted
// summaries over repeated runs.
package stats

import (
	"fmt"
	"math"
)

// Sample accumulates observations.
type Sample struct {
	xs []float64
}

// Add appends one observation.
func (s *Sample) Add(x float64) { s.xs = append(s.xs, x) }

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Mean returns the arithmetic mean (0 for an empty sample).
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Stdev returns the population standard deviation.
func (s *Sample) Stdev() float64 {
	n := len(s.xs)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// String renders "mean ± stdev (n=N)".
func (s *Sample) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean(), s.Stdev(), s.N())
}

// RelativeImprovement returns how much faster a is than b, as a fraction
// of b: (b-a)/b. Positive means a wins.
func RelativeImprovement(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return (b - a) / b
}

// Welch performs Welch's unequal-variance t-test between two samples and
// returns the t statistic and approximate degrees of freedom
// (Welch–Satterthwaite). The experiment reports use it to state whether a
// manager comparison is resolved above run-to-run noise.
func Welch(a, b *Sample) (t, df float64) {
	na, nb := float64(a.N()), float64(b.N())
	if na < 2 || nb < 2 {
		return 0, 0
	}
	va := a.Stdev() * a.Stdev() * na / (na - 1) // sample variance
	vb := b.Stdev() * b.Stdev() * nb / (nb - 1)
	sa, sb := va/na, vb/nb
	denom := math.Sqrt(sa + sb)
	if denom == 0 {
		return 0, 0
	}
	t = (a.Mean() - b.Mean()) / denom
	dfDenom := sa*sa/(na-1) + sb*sb/(nb-1)
	if dfDenom == 0 {
		return t, na + nb - 2
	}
	df = (sa + sb) * (sa + sb) / dfDenom
	return t, df
}

// Significant reports whether the two samples' means differ at roughly
// the 99% level (|t| above the t-distribution's 0.005 tail for the given
// degrees of freedom, conservatively approximated).
func Significant(a, b *Sample) bool {
	t, df := Welch(a, b)
	if df <= 0 {
		return false
	}
	// Conservative critical values for alpha=0.01 two-sided.
	crit := 3.5
	switch {
	case df >= 30:
		crit = 2.75
	case df >= 10:
		crit = 3.17
	}
	return math.Abs(t) > crit
}
