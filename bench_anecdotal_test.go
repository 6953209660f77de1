package tengig_test

import (
	"testing"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/units"
)

// §3.4 anecdotal results: the Intel-provided E7505 systems (533 MHz FSB)
// reach 4.64 Gb/s essentially out of the box with timestamps disabled
// (enabling them costs ~10%), and a quad 1-GHz Itanium-II sinks 7.2 Gb/s
// of aggregated traffic after the same optimizations.

func BenchmarkAnecdotal_E7505_OutOfBox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runSweep(b, host.IntelE7505, host.Stock(9000).WithoutTimestamps())
		reportSweep(b, res, 4.64)
	}
}

func BenchmarkAnecdotal_E7505_TimestampCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nots := runSweep(b, host.IntelE7505, host.Stock(9000).WithoutTimestamps())
		ts := runSweep(b, host.IntelE7505, host.Stock(9000))
		_, pn := nots.Peak()
		_, pt := ts.Peak()
		b.ReportMetric(pn.Gbps(), "nots_Gb/s")
		b.ReportMetric(pt.Gbps(), "ts_Gb/s")
		b.ReportMetric((1-pt.Gbps()/pn.Gbps())*100, "ts_penalty_pct")
		b.ReportMetric(10, "ts_penalty_pct_paper")
	}
}

func BenchmarkAnecdotal_ItaniumII_MultiFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := core.NewMultiFlow(1, host.ItaniumII,
			host.Stock(9000).WithMMRBC(4096).WithSockBuf(256*1024),
			10, core.GbESenders, false)
		if err != nil {
			b.Fatal(err)
		}
		res := core.RunMultiFlow(m, 100*units.Millisecond)
		b.ReportMetric(res.Aggregate.Gbps(), "Gb/s")
		b.ReportMetric(7.2, "Gb/s_paper")
	}
}

// §3.5.2: the PE4600's ~50% STREAM advantage buys no TCP throughput.
func BenchmarkAnecdotal_PE4600_NoGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pe2650 := runSweep(b, host.PE2650, host.Optimized(9000))
		pe4600 := runSweep(b, host.PE4600, host.Optimized(9000))
		_, a := pe2650.Peak()
		_, c := pe4600.Peak()
		b.ReportMetric(a.Gbps(), "pe2650_Gb/s")
		b.ReportMetric(c.Gbps(), "pe4600_Gb/s")
		b.ReportMetric(c.Gbps()/a.Gbps(), "ratio")
		b.ReportMetric(1.0, "ratio_paper")
	}
}
