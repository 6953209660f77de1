package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// These tests pin the simulation to the paper's anchor results (DESIGN.md
// §3/§4). Tolerances are deliberately generous where EXPERIMENTS.md records
// a known deviation; the *orderings* between configurations — which rung
// wins, and by roughly how much — are asserted tightly, because those are
// the paper's actual claims.

// sweepPeak runs a reduced sweep and returns peak and mean Gb/s.
func sweepPeak(t *testing.T, p host.Profile, tun host.Tuning) (peak, mean float64) {
	t.Helper()
	res, err := SweepConfig{
		Seed: 1, Profile: p, Tuning: tun,
		Payloads: []int{4096, 8148, 8948, 16384},
		Count:    2000,
		Workers:  -1, // identical rows, less wall-clock
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, pk := res.Peak()
	return pk.Gbps(), res.Mean().Gbps()
}

func between(t *testing.T, name string, got, lo, hi float64) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %.2f, want in [%.2f, %.2f]", name, got, lo, hi)
	}
}

func TestCalibrationStockTCP(t *testing.T) {
	// Figure 3: stock peaks 1.8 (1500) and 2.7 (9000) Gb/s.
	p1500, _ := sweepPeak(t, host.PE2650, host.Stock(1500))
	between(t, "stock 1500", p1500, 1.3, 2.1)
	p9000, _ := sweepPeak(t, host.PE2650, host.Stock(9000))
	between(t, "stock 9000", p9000, 2.4, 3.0)
	// Jumbo beats standard by the paper's 1.5x-2x, not the naive 6x.
	ratio := p9000 / p1500
	between(t, "jumbo/standard ratio", ratio, 1.4, 2.2)
}

func TestCalibrationMMRBC(t *testing.T) {
	// §3.3: MMRBC 512 -> 4096 lifts jumbo-frame throughput ~33%+ (paper:
	// 2.7 -> 3.6 peak); the gain at 1500 is much smaller in absolute terms.
	base, _ := sweepPeak(t, host.PE2650, host.Stock(9000))
	tuned, _ := sweepPeak(t, host.PE2650, host.Stock(9000).WithMMRBC(4096))
	if tuned < base*1.25 {
		t.Errorf("MMRBC gain at 9000 = %.0f%%, want >= 25%%", (tuned/base-1)*100)
	}
	between(t, "mmrbc 9000", tuned, 3.3, 4.3)
}

func TestCalibrationOptimized(t *testing.T) {
	// Figure 4: 256 KB windows at 9000 MTU -> 3.9 Gb/s peak.
	p9000, _ := sweepPeak(t, host.PE2650, host.Optimized(9000))
	between(t, "optimized 9000", p9000, 3.5, 4.2)
	// Figure 5: the headline 4.11 Gb/s at MTU 8160.
	p8160, m8160 := sweepPeak(t, host.PE2650, host.Optimized(8160))
	between(t, "optimized 8160 peak", p8160, 3.9, 4.5)
	between(t, "optimized 8160 mean", m8160, 3.8, 4.4)
	// 8160 beats 9000 (the allocator-block effect).
	if p8160 <= p9000 {
		t.Errorf("8160 (%.2f) should beat 9000 (%.2f)", p8160, p9000)
	}
	// Figure 5: MTU 16000 peak ~4.09, comparable to 8160.
	p16000, _ := sweepPeak(t, host.PE2650, host.Optimized(16000))
	between(t, "optimized 16000", p16000, 3.9, 4.6)
}

func TestCalibrationBufferRungAt1500(t *testing.T) {
	// 1500-MTU ladder: UP ~2.0-2.15, then 256 KB buffers -> 2.47.
	up, _ := sweepPeak(t, host.PE2650, host.Stock(1500).WithMMRBC(4096).WithUP())
	between(t, "UP 1500", up, 1.9, 2.4)
	buf, _ := sweepPeak(t, host.PE2650, host.Optimized(1500))
	between(t, "256K 1500", buf, 2.2, 2.7)
	if buf <= up {
		t.Errorf("256K buffers (%.2f) should beat 64K (%.2f) at 1500", buf, up)
	}
}

func TestCalibrationE7505(t *testing.T) {
	// §3.4: 4.64 Gb/s essentially out of the box with timestamps disabled;
	// enabling timestamps costs ~10%.
	nots, _ := sweepPeak(t, host.IntelE7505, host.Stock(9000).WithoutTimestamps())
	between(t, "E7505 no-ts", nots, 4.3, 5.1)
	ts, _ := sweepPeak(t, host.IntelE7505, host.Stock(9000))
	if ts >= nots {
		t.Errorf("timestamps should cost throughput: ts %.2f vs nots %.2f", ts, nots)
	}
	penalty := 1 - ts/nots
	between(t, "E7505 timestamp penalty", penalty, 0.03, 0.20)
	// And the E7505 out-of-box beats the fully optimized PE2650 (the
	// paper's "better than 13%" FSB observation; we assert it wins).
	pe, _ := sweepPeak(t, host.PE2650, host.Optimized(8160))
	if nots <= pe {
		t.Errorf("E7505 out-of-box (%.2f) should beat tuned PE2650 (%.2f)", nots, pe)
	}
}

func TestCalibrationPE4600NoGain(t *testing.T) {
	// §3.5.2: despite ~50% better STREAM bandwidth, the PE4600 shows no
	// network improvement over the PE2650.
	pe2650, _ := sweepPeak(t, host.PE2650, host.Optimized(9000))
	pe4600, _ := sweepPeak(t, host.PE4600, host.Optimized(9000))
	ratio := pe4600 / pe2650
	between(t, "PE4600/PE2650", ratio, 0.85, 1.10)
	s2650 := host.ProfileConfig(host.PE2650, "a", 0).Mem.StreamBW.Gbps()
	s4600 := host.ProfileConfig(host.PE4600, "a", 0).Mem.StreamBW.Gbps()
	between(t, "STREAM ratio", s4600/s2650, 1.4, 1.6)
}

func TestCalibrationPktgen(t *testing.T) {
	// §3.5.2: pktgen reaches ~5.5 Gb/s with 8160-byte packets (~88,400
	// packets/s) — TCP at 4.11 is ~75% of it.
	res, err := PktgenRun(1, host.PE2650, host.Optimized(8160), 30000, 8160)
	if err != nil {
		t.Fatal(err)
	}
	gbps := res.PayloadRate(8160).Gbps()
	between(t, "pktgen", gbps, 5.0, 6.0)
	pps := float64(res.Sent) / res.Elapsed.Seconds()
	between(t, "pktgen pps", pps, 76000, 92000)
}

func TestCalibrationLatency(t *testing.T) {
	// Figures 6/7: ~19 us back-to-back (25 through the switch) with 5 us
	// coalescing; ~14 us with coalescing off; +~20% from 1 B to 1024 B.
	run := func(tun host.Tuning, via bool) []tools.LatencyPoint {
		pts, err := LatencyConfig{Seed: 1, Profile: host.PE2650, Tuning: tun,
			Payloads: []int{1, 1024}, Reps: 15, ViaSwitch: via}.Run()
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	b2b := run(host.Optimized(9000), false)
	between(t, "b2b 1B latency (us)", b2b[0].OneWay.Micros(), 16, 21)
	between(t, "b2b 1024B latency (us)", b2b[1].OneWay.Micros(), 19, 25)
	if b2b[1].OneWay <= b2b[0].OneWay {
		t.Error("latency should grow with payload")
	}
	sw := run(host.Optimized(9000), true)
	swDelta := sw[0].OneWay.Micros() - b2b[0].OneWay.Micros()
	between(t, "switch latency delta (us)", swDelta, 4.5, 7.5)
	noco := run(host.Optimized(9000).WithoutCoalescing(), false)
	between(t, "no-coalesce 1B latency (us)", noco[0].OneWay.Micros(), 11, 15)
	coDelta := b2b[0].OneWay.Micros() - noco[0].OneWay.Micros()
	between(t, "coalescing delta (us)", coDelta, 3.5, 7.5)
}

func TestCalibrationStream(t *testing.T) {
	// §3.5.2: PE2650 STREAM ~8.6 Gb/s; PE4600 12.8 ("nearly 50% better");
	// E7505 "within a few percent" of the PE2650.
	between(t, "PE2650 STREAM", host.ProfileConfig(host.PE2650, "a", 0).Mem.StreamBW.Gbps(), 8.4, 8.8)
	between(t, "PE4600 STREAM", host.ProfileConfig(host.PE4600, "a", 0).Mem.StreamBW.Gbps(), 12.6, 13.0)
	e := host.ProfileConfig(host.IntelE7505, "a", 0).Mem.StreamBW.Gbps()
	p := host.ProfileConfig(host.PE2650, "a", 0).Mem.StreamBW.Gbps()
	between(t, "E7505/PE2650 STREAM", e/p, 0.95, 1.08)
}

func TestCalibrationIperfMatchesNTTCP(t *testing.T) {
	// §3.2: "the performance difference between the two is within 2-3%. In
	// no case does Iperf yield results significantly contrary to NTTCP."
	pn, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(8160)), 1)
	if err != nil {
		t.Fatal(err)
	}
	rn, err := tools.NTTCP(pn, 8192, 16384, units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(8160)), 1)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := tools.Iperf(pi, 100*units.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ri.Throughput.Gbps() / rn.Throughput.Gbps()
	between(t, "iperf/nttcp", ratio, 0.95, 1.05)
}

func TestCalibrationAllocatorSawtooth(t *testing.T) {
	// Generalizing Figure 5: crossing a power-of-2 allocator block boundary
	// costs throughput even though the MTU grew. 4000 (4 KB block) beats
	// 4200 (8 KB block); 8160 (8 KB) beats 8400 (16 KB).
	pts, err := MTUSweep(1, host.PE2650, []int{4000, 4200, 8160, 8400}, 16384, 2000, -1)
	if err != nil {
		t.Fatal(err)
	}
	byMTU := map[int]MTUPoint{}
	for _, p := range pts {
		byMTU[p.MTU] = p
	}
	if byMTU[4200].Peak >= byMTU[4000].Peak {
		t.Errorf("4200 (%v) should dip below 4000 (%v) across the 4KB boundary",
			byMTU[4200].Peak, byMTU[4000].Peak)
	}
	if byMTU[8400].Peak >= byMTU[8160].Peak {
		t.Errorf("8400 (%v) should dip below 8160 (%v) across the 8KB boundary",
			byMTU[8400].Peak, byMTU[8160].Peak)
	}
	if byMTU[4000].BlockSize != 4096 || byMTU[4200].BlockSize != 8192 {
		t.Errorf("block sizes: %d/%d", byMTU[4000].BlockSize, byMTU[4200].BlockSize)
	}
}

func TestCalibrationGbEBaseline(t *testing.T) {
	// §3.5.3: well-tuned GbE reaches near line speed with a 1500-byte MTU
	// (the comparison table's 990 Mb/s row). The same PE2650 that struggles
	// to fill 10GbE saturates GbE easily.
	// The e1000's default 20 us interrupt delay, at which this baseline is
	// calibrated.
	tun := host.Optimized(1500)
	tun.CoalesceDelay = 20 * units.Microsecond
	spec := topo.BackToBack(host.PE2650, tun)
	for i := range spec.Hosts {
		spec.Hosts[i].NIC = topo.NIC1G
	}
	pair, err := compilePair(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tools.NTTCP(pair, 8192, 16384, units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	gbps := res.Throughput.Gbps()
	between(t, "GbE baseline", gbps, 0.90, 0.95)
	// Line-rate ceiling after framing: 1500/1538 of 1 Gb/s ~ 0.975.
	if gbps > 0.976 {
		t.Errorf("GbE %.3f exceeds the framing ceiling", gbps)
	}
}
