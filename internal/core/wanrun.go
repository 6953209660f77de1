package core

import (
	"tengig/internal/ethernet"
	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/topo"
	"tengig/internal/units"
	"tengig/internal/wan"
)

// WANConfig describes a §4 wide-area run.
type WANConfig struct {
	Seed int64
	// Path parameters (zero value = wan.DefaultConfig()).
	Path wan.Config
	// SockBuf is each end's socket buffer; 0 means "tune to the BDP" as
	// the record run did. Oversizing it (e.g. 2×BDP) lets the congestion
	// window overrun the bottleneck queue — the failure mode Table 1
	// quantifies.
	SockBuf int
	// Duration is how long to run after the handshake.
	Duration units.Time
	// Warmup excludes the slow-start ramp from the measurement (the paper's
	// record was averaged over ~57 minutes, where the ~4 s ramp across a
	// 180 ms RTT is negligible; short simulated runs need this explicit).
	Warmup units.Time
	// SampleEvery, if nonzero, records a throughput sample per interval
	// into the result's Samples (rate-over-time, including the ramp).
	SampleEvery units.Time
	// TraceState records the sender's congestion-control state on every
	// ack/dupack/timeout into the result's StateTrace (the AIMD sawtooth).
	TraceState bool
	// MTU for the end hosts (the record run used 9000).
	MTU int
}

// WANResult reports a WAN run.
type WANResult struct {
	Bytes      int64
	Elapsed    units.Time
	Throughput units.Bandwidth
	// PayloadCeiling is the bottleneck's deliverable rate (for the paper's
	// "99% payload efficiency" claim).
	PayloadCeiling units.Bandwidth
	Efficiency     float64
	// Loss accounting.
	BottleneckDrops int64
	Retransmits     int64
	Timeouts        int64
	// TimeToTerabyte extrapolates the sustained rate (the paper: "a
	// terabyte of data in less than an hour").
	TimeToTerabyte units.Time
	// RTT is the measured smoothed round-trip time at the sender.
	RTT units.Time
	// Samples holds per-interval throughput (Gb/s) when SampleEvery was
	// set, starting at the beginning of the run (ramp included).
	Samples []float64
	// StateTrace holds the sender's congestion-control samples when
	// TraceState was set.
	StateTrace []tcp.StatePoint
}

// RunWAN compiles wan.Spec, executes its Sunnyvale→Geneva bulk transfer and
// reports the sustained application goodput.
func RunWAN(c WANConfig) (WANResult, error) {
	if c.MTU == 0 {
		c.MTU = ethernet.MTUJumbo
	}
	if c.Duration == 0 {
		c.Duration = 60 * units.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 6 * units.Second
	}
	if c.Path == (wan.Config{}) {
		c.Path = wan.DefaultConfig()
	}
	t := host.Stock(c.MTU)
	t.TxQueueLen = 10000 // the record run's txqueuelen
	t.MMRBC = 4096
	buf := c.SockBuf
	if buf == 0 {
		// "Optimized its buffer size to be approximately the bandwidth-delay
		// product" (§4.1): size the buffer so the *effective* window equals
		// the BDP — Linux advertises only 3/4 of the buffer
		// (tcp_adv_win_scale), so the rmem/wmem values are set above the
		// raw BDP, exactly as the paper's sysctl lines do.
		buf = c.Path.BDP(c.MTU) * 4 / 3
		buf += buf / 10 // headroom for truesize accounting of queued data
	}
	eng := sim.NewEngine(c.Seed)
	net, err := topo.Compile(eng, wan.Spec(c.Path, t.WithWindowScale(buf)), c.Seed)
	if err != nil {
		return WANResult{}, err
	}
	src, dst := net.Pairs[0].Src, net.Pairs[0].Dst
	if c.TraceState {
		src.Conn.EnableStateTrace(1 << 20)
	}

	var received int64
	dst.SetAutoRead(func(n int64) { received += n })
	src.Send(1<<50, 256*1024, false, nil)

	var samples []float64
	runFor := func(d units.Time) {
		if c.SampleEvery <= 0 {
			eng.RunUntil(eng.Now() + d)
			return
		}
		end := eng.Now() + d
		prev := received
		for eng.Now() < end {
			step := c.SampleEvery
			if left := end - eng.Now(); step > left {
				step = left
			}
			eng.RunUntil(eng.Now() + step)
			samples = append(samples, units.Throughput(received-prev, step).Gbps())
			prev = received
		}
	}
	runFor(c.Warmup)
	received = 0 // measure the sustained window only
	start := eng.Now()
	runFor(c.Duration)
	elapsed := eng.Now() - start

	res := WANResult{
		Bytes:           received,
		Elapsed:         elapsed,
		Throughput:      units.Throughput(received, elapsed),
		PayloadCeiling:  wan.PayloadRate(c.MTU),
		BottleneckDrops: wan.BottleneckDrops(net),
		Retransmits:     src.Conn.Stats.Retransmits,
		Timeouts:        src.Conn.Stats.Timeouts,
		RTT:             src.Conn.SRTT(),
		Samples:         samples,
		StateTrace:      src.Conn.StateTrace(),
	}
	if res.PayloadCeiling > 0 {
		res.Efficiency = float64(res.Throughput) / float64(res.PayloadCeiling)
	}
	if res.Throughput > 0 {
		res.TimeToTerabyte = units.Time(8e12 / float64(res.Throughput) * float64(units.Second))
	}
	return res, nil
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Path     string
	BW       units.Bandwidth
	RTT      units.Time
	MSS      int
	Recovery units.Time
}

// Table1 regenerates the paper's Table 1 from the AIMD recovery formula:
// LAN, Geneva–Chicago (120 ms) and Geneva–Sunnyvale (180 ms) at 1 and
// 10 Gb/s with MSS 1460 and 8960. The two legible paper anchors
// (Geneva–Chicago at 1 Gb/s/1460 → 10 min, 10 Gb/s/1460 → 1 h 42 min) pin
// the RTTs; see DESIGN.md "Table 1 ambiguity".
func Table1() []Table1Row {
	mk := func(path string, g float64, rtt units.Time, mss int) Table1Row {
		bw := units.FromGbps(g)
		return Table1Row{Path: path, BW: bw, RTT: rtt, MSS: mss,
			Recovery: recovery(bw, rtt, mss)}
	}
	return []Table1Row{
		mk("LAN", 10, 100*units.Microsecond, 1460),
		mk("Geneva-Chicago", 1, 120*units.Millisecond, 1460),
		mk("Geneva-Chicago", 10, 120*units.Millisecond, 1460),
		mk("Geneva-Chicago", 10, 120*units.Millisecond, 8960),
		mk("Geneva-Sunnyvale", 1, 180*units.Millisecond, 1460),
		mk("Geneva-Sunnyvale", 10, 180*units.Millisecond, 1460),
		mk("Geneva-Sunnyvale", 10, 180*units.Millisecond, 8960),
	}
}
