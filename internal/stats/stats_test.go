package stats

import (
	"math"
	"testing"
	"testing/quick"

	"tengig/internal/units"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("n = %d", s.N())
	}
	if !almost(s.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	// Population variance is 4; sample variance = 32/7.
	if !almost(s.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v", s.Variance())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Variance() != 0 || s.Stddev() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSummaryString(t *testing.T) {
	var s Summary
	s.Add(1)
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// Property: merging two summaries equals adding all samples to one.
func TestSummaryMergeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var sa, sb, all Summary
		for _, x := range a {
			sa.Add(x)
			all.Add(x)
		}
		for _, x := range b {
			sb.Add(x)
			all.Add(x)
		}
		sa.Merge(sb)
		if sa.N() != all.N() {
			return false
		}
		if sa.N() == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(all.Mean()))
		return almost(sa.Mean(), all.Mean(), 1e-9*scale) &&
			sa.Min() == all.Min() && sa.Max() == all.Max() &&
			almost(sa.Variance(), all.Variance(), 1e-6*scale*scale+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Add(128, 1.0)
	s.Add(1024, 2.5)
	s.Add(8192, 4.1)
	s.Add(16384, 3.9)
	if s.Len() != 4 {
		t.Fatalf("len = %d", s.Len())
	}
	x, y := s.PeakY()
	if x != 8192 || y != 4.1 {
		t.Errorf("peak = (%v,%v)", x, y)
	}
	if !almost(s.MeanY(), (1.0+2.5+4.1+3.9)/4, 1e-12) {
		t.Errorf("meanY = %v", s.MeanY())
	}
	if s.MinY() != 1.0 {
		t.Errorf("minY = %v", s.MinY())
	}
	if got := s.YAt(1000); got != 2.5 {
		t.Errorf("YAt(1000) = %v", got)
	}
	if got := s.YAt(1e9); got != 3.9 {
		t.Errorf("YAt(inf) = %v (want last)", got)
	}
	if !almost(s.MeanYOver(8000), 4.0, 1e-12) {
		t.Errorf("MeanYOver = %v", s.MeanYOver(8000))
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	x, y := s.PeakY()
	if x != 0 || y != 0 || s.MeanY() != 0 || s.MinY() != 0 || s.YAt(5) != 0 || s.MeanYOver(0) != 0 {
		t.Error("empty series should return zeros")
	}
}

type fakeBusy struct {
	busy units.Time
	n    int
}

func (f fakeBusy) TotalBusy() units.Time { return f.busy }
func (f fakeBusy) NumCPU() int           { return f.n }

func TestCPUSampler(t *testing.T) {
	c := NewCPUSampler(5 * units.Second)
	if c.Interval() != 5*units.Second {
		t.Error("interval")
	}
	// CPU busy 0.9s out of each 1s window: load 0.9.
	r := fakeBusy{n: 2}
	for i := 0; i <= 10; i++ {
		r.busy = units.Time(float64(i) * 0.9 * float64(units.Second))
		c.Sample(units.Time(i)*units.Second, r)
	}
	if !almost(c.Load(), 0.9, 1e-9) {
		t.Errorf("load = %v, want 0.9", c.Load())
	}
	if c.Samples() != 10 {
		t.Errorf("samples = %d", c.Samples())
	}
	if !almost(c.PeakLoad(), 0.9, 1e-9) {
		t.Errorf("peak = %v", c.PeakLoad())
	}
}
