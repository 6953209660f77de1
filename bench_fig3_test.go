package tengig_test

import (
	"testing"

	"tengig/internal/core"
	"tengig/internal/host"
)

// Figure 3: throughput of stock TCP (SMP kernel, MMRBC 512, default
// windows) with 1500- vs 9000-byte MTUs on the PE2650 pair.
// Paper: peaks 1.8 Gb/s (1500) and 2.7 Gb/s (9000); CPU load ~0.9 and ~0.4.

// benchPayloads is the reduced sweep grid used by the benchmarks; the full
// paper-resolution grid is available through cmd/sweep -full.
var benchPayloads = []int{1024, 2048, 4096, 6000, 7436, 8148, 8948, 12288, 16384}

const benchCount = 2000

// benchWorkers fans the independent payload points of every benchmark
// sweep across one worker per CPU. Result rows are identical to a serial
// run (each point owns a seed-deterministic engine); only wall-clock
// changes.
const benchWorkers = -1

func runSweep(b *testing.B, p host.Profile, t host.Tuning) *core.SweepResult {
	b.Helper()
	res, err := core.SweepConfig{
		Seed: 1, Profile: p, Tuning: t,
		Payloads: benchPayloads, Count: benchCount, Workers: benchWorkers,
	}.Run()
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func reportSweep(b *testing.B, res *core.SweepResult, paperPeak float64) {
	b.Helper()
	_, peak := res.Peak()
	b.ReportMetric(peak.Gbps(), "peak_Gb/s")
	b.ReportMetric(res.Mean().Gbps(), "mean_Gb/s")
	b.ReportMetric(paperPeak, "peak_Gb/s_paper")
}

func BenchmarkFigure3_Stock_1500MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSweep(b, host.PE2650, host.Stock(1500))
		reportSweep(b, res, 1.8)
		// The paper's load observation: ~0.9 at 1500.
		b.ReportMetric(res.Points[len(res.Points)-1].ReceiverLoad, "rcv_load")
	}
}

func BenchmarkFigure3_Stock_9000MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSweep(b, host.PE2650, host.Stock(9000))
		reportSweep(b, res, 2.7)
		b.ReportMetric(res.Points[len(res.Points)-1].ReceiverLoad, "rcv_load")
	}
}

// The §3.3 intermediate rungs (between Figures 3 and 4).

func BenchmarkFigure3_MMRBC4096_9000MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, runSweep(b, host.PE2650, host.Stock(9000).WithMMRBC(4096)), 3.6)
	}
}

func BenchmarkFigure3_MMRBC4096_UP_9000MTU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportSweep(b, runSweep(b, host.PE2650, host.Stock(9000).WithMMRBC(4096).WithUP()), 3.6)
	}
}

// Figure 3's distinguishing feature is the instability of the 9000-MTU
// curve with default windows: truesize/backlog pressure on the 85 KB buffer
// makes the MSS-aligned advertisement oscillate. This bench characterizes
// the spread; Figure 4's configuration is steady by comparison.
func BenchmarkFigure3_WindowDipCharacterization(b *testing.B) {
	fine := []int{7168, 7436, 7704, 7972, 8240, 8508, 8776, 8948, 9216, 9484}
	for i := 0; i < b.N; i++ {
		run := func(t host.Tuning) (min, mean float64) {
			res, err := core.SweepConfig{
				Seed: 1, Profile: host.PE2650, Tuning: t,
				Payloads: fine, Count: benchCount, Workers: benchWorkers,
			}.Run()
			if err != nil {
				b.Fatal(err)
			}
			return res.Series.MinY(), res.Series.MeanY()
		}
		dmin, dmean := run(host.Stock(9000).WithMMRBC(4096).WithUP())
		omin, omean := run(host.Optimized(9000))
		b.ReportMetric(dmin/dmean, "default_min_over_mean")
		b.ReportMetric(omin/omean, "tuned_min_over_mean")
		b.ReportMetric(dmean, "default_mean_Gb/s")
		b.ReportMetric(omean, "tuned_mean_Gb/s")
	}
}
