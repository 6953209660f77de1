package tengig_test

import (
	"testing"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/units"
)

// §3.5.2: multi-flow aggregation through the FastIron 1500. The paper's
// findings: (1) the transmit and receive paths perform statistically
// equally; (2) two adapters on independent buses match one adapter (the
// PCI-X bus is not the bottleneck); (3) the kernel packet generator tops
// out at 5.5 Gb/s (8160-byte packets, ~88,400 packets/s) — the host's
// data-movement ceiling.

func aggregate(b *testing.B, reverse bool, nics int) float64 {
	b.Helper()
	m, err := core.NewMultiFlowNICs(1, host.PE2650, host.Optimized(9000),
		6, core.GbESenders, reverse, nics)
	if err != nil {
		b.Fatal(err)
	}
	return core.RunMultiFlow(m, 100*units.Millisecond).Aggregate.Gbps()
}

func BenchmarkMultiFlow_ReceiveAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(aggregate(b, false, 1), "rx_Gb/s")
	}
}

func BenchmarkMultiFlow_TransmitEqualsReceive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rx := aggregate(b, false, 1)
		tx := aggregate(b, true, 1)
		b.ReportMetric(rx, "rx_Gb/s")
		b.ReportMetric(tx, "tx_Gb/s")
		b.ReportMetric(tx/rx, "tx_over_rx")
		b.ReportMetric(1.0, "tx_over_rx_paper")
	}
}

func BenchmarkMultiFlow_TwoAdaptersEqualOne(b *testing.B) {
	for i := 0; i < b.N; i++ {
		one := aggregate(b, false, 1)
		two := aggregate(b, false, 2)
		b.ReportMetric(one, "one_nic_Gb/s")
		b.ReportMetric(two, "two_nic_Gb/s")
		b.ReportMetric(two/one, "ratio")
		b.ReportMetric(1.0, "ratio_paper")
	}
}

func BenchmarkPktgen_8160(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.PktgenRun(1, host.PE2650, host.Optimized(8160), 30000, 8160)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PayloadRate(8160).Gbps(), "Gb/s")
		b.ReportMetric(5.5, "Gb/s_paper")
		b.ReportMetric(float64(res.Sent)/res.Elapsed.Seconds(), "pkts/s")
		b.ReportMetric(88400, "pkts/s_paper")
	}
}
