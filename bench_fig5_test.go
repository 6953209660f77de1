package tengig_test

import (
	"testing"

	"tengig/internal/compare"
	"tengig/internal/host"
)

// Figure 5: cumulative optimizations with non-standard MTUs. Paper: peaks
// 4.11 Gb/s (8160 — fits an 8 KB allocator block) and 4.09 Gb/s (16000,
// with a higher average), against theoretical reference lines for GbE
// (1 Gb/s), Myrinet (2 Gb/s), and QsNet (3.2 Gb/s).

func BenchmarkFigure5_Optimized_8160MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSweep(b, host.PE2650, host.Optimized(8160))
		reportSweep(b, res, 4.11)
		// Reference lines from the figure.
		rows := compare.Published()
		b.ReportMetric(rows[0].TheoreticalMax.Gbps(), "gbe_theoretical")
		b.ReportMetric(rows[1].TheoreticalMax.Gbps(), "myrinet_theoretical")
		b.ReportMetric(rows[3].TheoreticalMax.Gbps(), "qsnet_theoretical")
	}
}

func BenchmarkFigure5_Optimized_16000MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSweep(b, host.PE2650, host.Optimized(16000))
		reportSweep(b, res, 4.09)
		b.ReportMetric(res.MeanOver(8000).Gbps(), "mean_hi_Gb/s")
	}
}

// The allocator story behind 8160 vs 9000: same data rate class, one block
// order apart.
func BenchmarkFigure5_AllocatorEffect_8160vs9000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r8160 := runSweep(b, host.PE2650, host.Optimized(8160))
		r9000 := runSweep(b, host.PE2650, host.Optimized(9000))
		_, p8160 := r8160.Peak()
		_, p9000 := r9000.Peak()
		b.ReportMetric(p8160.Gbps(), "peak_8160_Gb/s")
		b.ReportMetric(p9000.Gbps(), "peak_9000_Gb/s")
		b.ReportMetric(p8160.Gbps()/p9000.Gbps(), "ratio")
		b.ReportMetric(4.11/3.9, "ratio_paper")
	}
}
