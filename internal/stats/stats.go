// Package stats provides the measurement primitives used by the experiment
// harness: online summary statistics, log-bucketed histograms,
// time-bucketed rate series, and a /proc/loadavg-style load sampler.
package stats

import (
	"fmt"
	"math"
)

// Summary accumulates online count/mean/variance/min/max without storing
// samples (Welford's algorithm). The zero value is ready to use.
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one sample.
func (s *Summary) Add(x float64) {
	if s.n == 0 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	s.n++
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds other into s, as if all of other's samples had been Added.
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n := s.n + other.n
	d := other.mean - s.mean
	mean := s.mean + d*float64(other.n)/float64(n)
	m2 := s.m2 + other.m2 + d*d*float64(s.n)*float64(other.n)/float64(n)
	min := s.min
	if other.min < min {
		min = other.min
	}
	max := s.max
	if other.max > max {
		max = other.max
	}
	*s = Summary{n: n, mean: mean, m2: m2, min: min, max: max}
}

// N returns the sample count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the sample mean (0 with no samples).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest sample (0 with no samples).
func (s *Summary) Min() float64 {
	if s.n == 0 {
		return 0
	}
	return s.min
}

// Max returns the largest sample (0 with no samples).
func (s *Summary) Max() float64 {
	if s.n == 0 {
		return 0
	}
	return s.max
}

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Variance()) }

// String summarizes the distribution.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g min=%.4g max=%.4g sd=%.3g",
		s.n, s.Mean(), s.Min(), s.Max(), s.Stddev())
}

// Series records (x, y) points, e.g. payload size vs throughput — the shape
// of every figure in the paper.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// PeakY returns the maximum y value and its x (0,0 when empty).
func (s *Series) PeakY() (x, y float64) {
	for i, v := range s.Y {
		if i == 0 || v > y {
			x, y = s.X[i], v
		}
	}
	return
}

// MeanY returns the average of the y values.
func (s *Series) MeanY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s.Y {
		sum += v
	}
	return sum / float64(len(s.Y))
}

// MinY returns the minimum y value (0 when empty).
func (s *Series) MinY() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	min := s.Y[0]
	for _, v := range s.Y[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// YAt returns the y for the first x >= target, or the last y. Useful for
// reading a figure at a given payload size.
func (s *Series) YAt(target float64) float64 {
	if len(s.X) == 0 {
		return 0
	}
	for i, x := range s.X {
		if x >= target {
			return s.Y[i]
		}
	}
	return s.Y[len(s.Y)-1]
}

// MeanYOver returns the mean of y restricted to points with x >= lo. It
// mirrors how the paper quotes "average throughput" over the upper payload
// range of a sweep.
func (s *Series) MeanYOver(lo float64) float64 {
	sum, n := 0.0, 0
	for i, x := range s.X {
		if x >= lo {
			sum += s.Y[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
