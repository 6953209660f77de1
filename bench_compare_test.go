package tengig_test

import (
	"testing"

	"tengig/internal/compare"
	"tengig/internal/host"
	"tengig/internal/units"
)

// §3.5.3: the interconnect comparison. The paper positions its measured
// 10GbE results (4.11 Gb/s, 19 us) against GbE, Myrinet (GM and TCP/IP),
// and QsNet (Elan3 and TCP/IP): >300% better throughput than GbE, >120%
// than Myrinet/IP, >80% than QsNet/IP.

func BenchmarkComparison_InterconnectClaims(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Use this reproduction's own measured numbers.
		res := runSweep(b, host.PE2650, host.Optimized(8160))
		_, peak := res.Peak()
		pts := latencySweep(b, host.Optimized(9000), false)
		lat := units.Time(pts[0].OneWay)

		claims := compare.EvaluateClaims(peak, lat)
		held := 0
		for _, c := range claims {
			if c.Holds {
				held++
			}
		}
		b.ReportMetric(peak.Gbps(), "tengbe_Gb/s")
		b.ReportMetric(lat.Micros(), "tengbe_us")
		b.ReportMetric(float64(held), "claims_held")
		b.ReportMetric(float64(len(claims)), "claims_total")

		rows := compare.Published()
		for _, r := range rows {
			if r.Name == "Myrinet" && r.API == "TCP/IP" {
				b.ReportMetric(peak.Gbps()/r.Throughput.Gbps(), "vs_myrinet_ip")
			}
			if r.Name == "QsNet" && r.API == "TCP/IP" {
				b.ReportMetric(peak.Gbps()/r.Throughput.Gbps(), "vs_qsnet_ip")
			}
		}
	}
}
