package core

import (
	"tengig/internal/alloc"
	"tengig/internal/ethernet"
	"tengig/internal/host"
	"tengig/internal/runner"
	"tengig/internal/tcp"
	"tengig/internal/units"
)

// recovery re-exports the AIMD recovery-time formula for Table 1.
func recovery(bw units.Bandwidth, rtt units.Time, mss int) units.Time {
	return tcp.RecoveryTime(bw, rtt, mss)
}

// WindowAuditRow is one line of the Figure 8 / §3.5.1 window analysis.
type WindowAuditRow struct {
	Description string
	Ideal       int // ideal (or available) window in bytes
	MSS         int
	Usable      int // after MSS alignment
	LossPct     float64
}

// WindowAudit regenerates the paper's window-alignment arithmetic:
// Figure 8's ideal-vs-MSS-allowed window, the LAN 48 KB example, and the
// §3.5.1 sender/receiver MSS mismatch example.
func WindowAudit() []WindowAuditRow {
	rows := []WindowAuditRow{}
	add := func(desc string, ideal, mss int) {
		usable := tcp.MSSAlignedWindow(ideal, mss)
		rows = append(rows, WindowAuditRow{
			Description: desc,
			Ideal:       ideal,
			MSS:         mss,
			Usable:      usable,
			LossPct:     (1 - float64(usable)/float64(ideal)) * 100,
		})
	}
	// Figure 8: ~26 KB theoretical window, ~9 KB MSS -> 18 KB usable (31%).
	add("Figure 8: ideal ~26KB window, 8948 MSS", 26*1024, 8948)
	// §3.5.1 LAN: 19 us latency -> ~48 KB ideal window, 5 whole segments.
	add("LAN: BDP at 10Gb/s x 38us RTT, 8948 MSS",
		tcp.IdealWindow(10*units.GbitPerSecond, 38*units.Microsecond), 8948)
	// §3.5.1 mismatch: 33,000-byte buffer, receiver MSS 8948 (advertised
	// 26,844), sender MSS 8960 (usable 17,920; ~46% of the buffer wasted).
	adv, usable := tcp.SenderUsableWindow(33000, 8948, 8960)
	rows = append(rows, WindowAuditRow{
		Description: "§3.5.1: 33000B buffer, rcv MSS 8948 -> advertised",
		Ideal:       33000, MSS: 8948, Usable: adv,
		LossPct: (1 - float64(adv)/33000.0) * 100,
	})
	rows = append(rows, WindowAuditRow{
		Description: "§3.5.1: advertised 26844, snd MSS 8960 -> usable",
		Ideal:       adv, MSS: 8960, Usable: usable,
		LossPct: (1 - float64(usable)/float64(adv)) * 100,
	})
	return rows
}

// LadderRungs returns the paper's §3.3 sequence of cumulative
// optimizations at the given MTU.
func LadderRungs(mtu int) []struct {
	Name   string
	Tuning host.Tuning
} {
	stock := host.Stock(mtu)
	return []struct {
		Name   string
		Tuning host.Tuning
	}{
		{"stock", stock},
		{"+MMRBC 4096", stock.WithMMRBC(4096)},
		{"+UP kernel", stock.WithMMRBC(4096).WithUP()},
		{"+256KB windows", stock.WithMMRBC(4096).WithUP().WithSockBuf(256 * 1024)},
	}
}

// MTUPoint is one measurement of an MTU sweep.
type MTUPoint struct {
	MTU       int
	BlockSize int64 // allocator block for a full frame at this MTU
	Peak      units.Bandwidth
	Mean      units.Bandwidth
}

// MTUSweep measures optimized throughput across device MTUs — the
// generalization of Figure 5's 8160/9000/16000 triplet. The allocator's
// power-of-2 block boundaries produce a sawtooth: throughput climbs with
// MTU, then dips just past each block boundary (8160 fits an 8 KB block;
// 8200 does not).
// Each MTU is a one-payload sweep on its own engine, so workers fans the
// MTUs themselves across the pool (0 or 1 = serial, negative = one per
// CPU) with input-ordered, scheduling-independent results.
func MTUSweep(seed int64, p host.Profile, mtus []int, payload, count, workers int) ([]MTUPoint, error) {
	pts, _, errs := runner.Map(mtus, runner.Options[struct{}]{Workers: NormalizeWorkers(workers)},
		func(_ struct{}, _ int, mtu int) (MTUPoint, error) {
			res, err := SweepConfig{
				Seed: seed, Profile: p, Tuning: host.Optimized(mtu),
				Payloads: []int{payload}, Count: count,
			}.Run()
			if err != nil {
				return MTUPoint{}, err
			}
			_, peak := res.Peak()
			return MTUPoint{
				MTU:       mtu,
				BlockSize: alloc.BlockFor(mtu + ethernet.HeaderLen),
				Peak:      peak,
				Mean:      res.Mean(),
			}, nil
		})
	if err := runner.FirstErr(errs); err != nil {
		return nil, err
	}
	return pts, nil
}
