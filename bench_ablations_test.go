package tengig_test

import (
	"testing"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/units"
)

// Ablations beyond the paper's main results: the §3.3 discussion points the
// paper could not yet measure — NAPI receive processing and TCP
// segmentation offload on "newer versions of Linux" — plus sensitivity
// sweeps over the design choices DESIGN.md calls out.

// §3.3: "the NAPI allows for better handling ... which ultimately decreases
// the load that the 10GbE card places on the receiving host."
func BenchmarkAblation_NAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		old := runSweep(b, host.PE2650, host.Optimized(8160))
		napi := runSweep(b, host.PE2650, host.Optimized(8160).WithNAPI())
		_, po := old.Peak()
		_, pn := napi.Peak()
		b.ReportMetric(po.Gbps(), "oldapi_Gb/s")
		b.ReportMetric(pn.Gbps(), "napi_Gb/s")
		// NAPI's main benefit is receiver load, not throughput.
		b.ReportMetric(old.Points[len(old.Points)-1].ReceiverLoad, "oldapi_rcv_load")
		b.ReportMetric(napi.Points[len(napi.Points)-1].ReceiverLoad, "napi_rcv_load")
	}
}

// §3.3: "the implementation of TSO should reduce the CPU load on
// transmitting systems, and in many cases, will increase throughput."
func BenchmarkAblation_TSO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		off := runSweep(b, host.PE2650, host.Optimized(8160))
		on := runSweep(b, host.PE2650, host.Optimized(8160).WithTSO())
		_, po := off.Peak()
		_, pn := on.Peak()
		// On the memory-bound PE2650 the benefit is per-segment stack work,
		// not throughput — exactly the paper's "main benefit is in
		// decreasing the load on the host CPU rather than substantially
		// improving throughput".
		b.ReportMetric(po.Gbps(), "tso_off_Gb/s")
		b.ReportMetric(pn.Gbps(), "tso_on_Gb/s")
		b.ReportMetric(off.Points[len(off.Points)-1].SenderLoad, "tso_off_snd_load")
		b.ReportMetric(on.Points[len(on.Points)-1].SenderLoad, "tso_on_snd_load")
	}
}

// MMRBC sensitivity across the register's range.
func BenchmarkAblation_MMRBCSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, mmrbc := range []int{512, 1024, 2048, 4096} {
			res, err := core.SweepConfig{
				Seed: 1, Profile: host.PE2650,
				Tuning:   host.Stock(9000).WithMMRBC(mmrbc),
				Payloads: []int{8948, 16384}, Count: benchCount,
				Workers: benchWorkers,
			}.Run()
			if err != nil {
				b.Fatal(err)
			}
			_, peak := res.Peak()
			b.ReportMetric(peak.Gbps(), map[int]string{
				512: "mmrbc512_Gb/s", 1024: "mmrbc1024_Gb/s",
				2048: "mmrbc2048_Gb/s", 4096: "mmrbc4096_Gb/s",
			}[mmrbc])
		}
	}
}

// Interrupt-coalescing sweep: the latency/throughput trade the paper
// describes around Figures 6 and 7.
func BenchmarkAblation_CoalescingSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, us := range []int{0, 5, 20} {
			t := host.Optimized(9000)
			t.CoalesceDelay = microseconds(us)
			pts, err := core.LatencyConfig{
				Seed: 1, Profile: host.PE2650, Tuning: t,
				Payloads: []int{1}, Reps: 10,
			}.Run()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(pts[0].OneWay.Micros(), map[int]string{
				0: "coal0_us", 5: "coal5_us", 20: "coal20_us",
			}[us])
		}
	}
}

// microseconds converts an int count of microseconds to the simulator's
// time unit.
func microseconds(n int) units.Time { return units.Time(n) * units.Microsecond }

// §3.5.1's proposed fix: "modifying the SWS avoidance and congestion-window
// algorithms to allow for fractional MSS increments when the number of
// segments per window is small." With default buffers and jumbo frames the
// fractional-window variant recovers (part of) the alignment waste.
func BenchmarkAblation_FractionalWindows(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tun := host.Stock(9000).WithMMRBC(4096).WithUP()
		aligned := runSweep(b, host.PE2650, tun)
		frac := runSweep(b, host.PE2650, tun.WithFractionalWindows())
		_, pa := aligned.Peak()
		_, pf := frac.Peak()
		b.ReportMetric(pa.Gbps(), "aligned_Gb/s")
		b.ReportMetric(pf.Gbps(), "fractional_Gb/s")
		b.ReportMetric(aligned.Mean().Gbps(), "aligned_mean_Gb/s")
		b.ReportMetric(frac.Mean().Gbps(), "fractional_mean_Gb/s")
	}
}

// Footnote 8's receiver-MSS estimation mismatch needs asymmetric MTUs to
// bite; it is exercised behaviorally by internal/tcp's
// TestRcvMSSObservedVsOwn (a 1500-MTU sender against a 9000-MTU receiver
// aligning to its own 8948-byte MSS wastes window).

// §3.3's aside: "the P4 Xeon SMP architecture assigns each interrupt to a
// single CPU instead of processing them in a round-robin manner". What if
// it had round-robined? Spreading IRQs parallelizes the receive path but
// migrates handler state between caches and can reorder delivery across
// batches — the trade this bench measures.
func BenchmarkAblation_IRQRoundRobin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pinned := runSweep(b, host.PE2650, host.Stock(1500).WithMMRBC(4096))
		rr := runSweep(b, host.PE2650, host.Stock(1500).WithMMRBC(4096).WithIRQRoundRobin())
		_, pp := pinned.Peak()
		_, pr := rr.Peak()
		b.ReportMetric(pp.Gbps(), "pinned_Gb/s")
		b.ReportMetric(pr.Gbps(), "roundrobin_Gb/s")
	}
}
