package tengig_test

import (
	"testing"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/tools"
)

// Figure 6: end-to-end latency vs payload (1 B – 1 KB) with the default
// 5 us interrupt coalescing. Paper: 19 us back-to-back and 25 us through
// the FastIron at 1 byte, rising ~20% stepwise to 23 us / 28 us at 1 KB.

func latencySweep(b *testing.B, t host.Tuning, viaSwitch bool) []tools.LatencyPoint {
	b.Helper()
	pts, err := core.LatencyConfig{
		Seed: 1, Profile: host.PE2650, Tuning: t,
		Payloads: []int{1, 64, 256, 512, 1024}, Reps: 15, ViaSwitch: viaSwitch,
	}.Run()
	if err != nil {
		b.Fatal(err)
	}
	return pts
}

func BenchmarkFigure6_Latency_BackToBack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := latencySweep(b, host.Optimized(9000), false)
		b.ReportMetric(pts[0].OneWay.Micros(), "us_1B")
		b.ReportMetric(pts[len(pts)-1].OneWay.Micros(), "us_1KB")
		b.ReportMetric(19, "us_1B_paper")
		b.ReportMetric(23, "us_1KB_paper")
	}
}

func BenchmarkFigure6_Latency_ThroughSwitch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := latencySweep(b, host.Optimized(9000), true)
		b.ReportMetric(pts[0].OneWay.Micros(), "us_1B")
		b.ReportMetric(pts[len(pts)-1].OneWay.Micros(), "us_1KB")
		b.ReportMetric(25, "us_1B_paper")
		b.ReportMetric(28, "us_1KB_paper")
	}
}
