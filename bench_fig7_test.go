package tengig_test

import (
	"testing"

	"tengig/internal/host"
)

// Figure 7: end-to-end latency with interrupt coalescing disabled. Paper:
// the 5 us interrupt delay comes straight off the path — 14 us at 1 byte
// back-to-back.

func BenchmarkFigure7_Latency_NoCoalescing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := latencySweep(b, host.Optimized(9000), false)
		off := latencySweep(b, host.Optimized(9000).WithoutCoalescing(), false)
		b.ReportMetric(off[0].OneWay.Micros(), "us_1B")
		b.ReportMetric(14, "us_1B_paper")
		b.ReportMetric(on[0].OneWay.Micros()-off[0].OneWay.Micros(), "coalescing_delta_us")
		b.ReportMetric(5, "coalescing_delta_us_paper")
	}
}
