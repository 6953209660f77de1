// windows walks through §3.5.1's window analysis: the arithmetic of
// MSS-aligned advertisements (Figure 8), and a live demonstration using the
// tcpdump-style capture — every window the receiver advertises moves in
// whole-MSS steps, and a receiver that aligns to the wrong MSS estimate
// (footnote 8) wastes buffer.
package main

import (
	"fmt"
	"log"

	"tengig/internal/capture"
	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

func main() {
	log.SetFlags(0)

	fmt.Println("§3.5.1 / Figure 8 window arithmetic:")
	for _, r := range core.WindowAudit() {
		fmt.Printf("  %-52s window %6d, MSS %4d -> usable %6d (%.0f%% lost)\n",
			r.Description, r.Ideal, r.MSS, r.Usable, r.LossPct)
	}
	fmt.Println()

	// Live wire check: attach a capture and watch the advertisements.
	pair, err := backToBack(host.Optimized(9000))
	if err != nil {
		log.Fatal(err)
	}
	tap := capture.New(1 << 18)
	pair.SrcHost.SetCapture(tap)
	if _, err := tools.NTTCP(pair, 3000, 8948, units.Minute); err != nil {
		log.Fatal(err)
	}
	mss := pair.Src.Conn.MSS()
	quantum := 1 << pair.Dst.Conn.Config().WScale()
	st := tap.AnalyzeWindow(pair.Src.Flow(), mss, quantum)
	fmt.Printf("on the wire (MSS %d, %d advertisements observed):\n", mss, st.Samples)
	fmt.Printf("  min %d = %.1f segments, max %d = %.1f segments, mean %.0f\n",
		st.Min, float64(st.Min)/float64(mss), st.Max, float64(st.Max)/float64(mss), st.Mean)
	fmt.Printf("  MSS-aligned advertisements: %.0f%% (Linux SWS avoidance, footnote 6)\n\n",
		st.MSSAlignedFraction*100)

	// The paper's proposed fix, as an ablation: fractional-MSS windows.
	tun := host.Stock(9000).WithMMRBC(4096).WithUP()
	measure := func(t host.Tuning) float64 {
		p, err := backToBack(t)
		if err != nil {
			log.Fatal(err)
		}
		res, err := tools.NTTCP(p, 3000, 8948, units.Minute)
		if err != nil {
			log.Fatal(err)
		}
		return res.Throughput.Gbps()
	}
	aligned := measure(tun)
	fractional := measure(tun.WithFractionalWindows())
	fmt.Println("§3.5.1's proposed solution (\"fractional MSS increments\"), default buffers:")
	fmt.Printf("  MSS-aligned windows:  %.2f Gb/s\n", aligned)
	fmt.Printf("  fractional windows:   %.2f Gb/s\n", fractional)
}

// backToBack compiles the Figure 2(a) testbed of PE2650 hosts at tuning t
// and returns its measurement pair.
func backToBack(t host.Tuning) (*tools.Pair, error) {
	net, err := topo.Compile(sim.NewEngine(1), topo.BackToBack(host.PE2650, t), 1)
	if err != nil {
		return nil, err
	}
	return net.Pairs[0], nil
}
