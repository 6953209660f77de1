package tengig_test

import (
	"testing"

	"tengig/internal/host"
)

// Figure 4: TCP with oversized (256 KB) windows, increased PCI-X burst
// size, and a uniprocessor kernel. Paper: peaks 2.47 Gb/s (1500) and
// 3.9 Gb/s (9000); the Figure 3 window dip is eliminated.

func BenchmarkFigure4_Optimized_1500MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, runSweep(b, host.PE2650, host.Optimized(1500)), 2.47)
	}
}

func BenchmarkFigure4_Optimized_9000MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSweep(b, host.PE2650, host.Optimized(9000))
		reportSweep(b, res, 3.9)
		// Dip elimination: the sweep's minimum should stay near its mean
		// rather than cratering as in Figure 3.
		b.ReportMetric(res.Series.MinY()/res.Series.MeanY(), "min_over_mean")
	}
}
