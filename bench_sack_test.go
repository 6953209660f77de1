package tengig_test

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// SACK ablation (extension beyond the paper's measurements; the paper's
// Linux 2.4 stack shipped with SACK enabled). A burst of random loss on the
// data path: the scoreboard repairs multiple holes per round trip, so SACK
// sustains more throughput than pure NewReno under the same loss.

func lossyRun(b *testing.B, sack bool) tools.ThroughputResult {
	b.Helper()
	tun := host.Optimized(9000)
	if !sack {
		tun = tun.WithoutSACK()
	}
	spec := topo.BackToBack(host.PE2650, tun)
	spec.Links[0].Faults = &topo.LinkFaults{AtoB: netem.Script{{Fault: netem.Fault{LossProb: 0.005}}}}
	net, err := topo.Compile(sim.NewEngine(11), spec, 11)
	if err != nil {
		b.Fatal(err)
	}
	res, err := tools.NTTCP(net.Pairs[0], 8000, 8948, 10*units.Minute)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkAblation_SACKUnderLoss(b *testing.B) {
	for i := 0; i < b.N; i++ {
		with := lossyRun(b, true)
		without := lossyRun(b, false)
		b.ReportMetric(with.Throughput.Gbps(), "sack_Gb/s")
		b.ReportMetric(without.Throughput.Gbps(), "newreno_Gb/s")
		b.ReportMetric(float64(with.Retransmits), "sack_retx")
		b.ReportMetric(float64(without.Retransmits), "newreno_retx")
	}
}
