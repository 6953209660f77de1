// Command magnet runs a transfer with the MAGNET-style per-packet tracer
// and a tcpdump-style capture attached, printing the path profile and
// wire-level window analysis — the §5 methodology ("per-packet profiling
// and tracing of the stack's control path ... an unprecedentedly
// high-resolution picture of the most expensive aspects of TCP processing
// overhead").
//
// Usage:
//
//	magnet [-profile pe2650] [-mtu 9000] [-stock] [-count 4000] [-payload 8948]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"tengig/internal/capture"
	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/trace"
	"tengig/internal/units"
)

func main() {
	log.SetFlags(0)
	var (
		profile  = flag.String("profile", "pe2650", "host profile")
		mtu      = flag.Int("mtu", 9000, "device MTU")
		stock    = flag.Bool("stock", false, "use the stock configuration")
		count    = flag.Int("count", 4000, "application writes")
		payload  = flag.Int("payload", 8948, "bytes per write")
		sample   = flag.Uint64("sample", 4, "trace one packet in N")
		dump     = flag.Int("dump", 12, "tcpdump lines to print")
		seed     = flag.Int64("seed", 1, "simulation seed")
		telemDir = flag.String("telemetry", "", "directory for the run's telemetry bundle (JSONL + CSV); enables instrument sampling")
	)
	flag.Parse()
	hostProfile, err := host.ParseProfile(*profile)
	if err != nil {
		log.Fatalf("magnet: %v", err)
	}
	if err := host.ValidateMTU(*mtu); err != nil {
		log.Fatalf("magnet: %v", err)
	}
	if err := host.ValidateTransfer(*count, *payload); err != nil {
		log.Fatalf("magnet: %v", err)
	}
	if *sample == 0 {
		log.Fatal("magnet: -sample must be at least 1")
	}

	tun := host.Optimized(*mtu)
	if *stock {
		tun = host.Stock(*mtu)
	}
	eng := sim.NewEngine(*seed)
	net, err := topo.Compile(eng, topo.BackToBack(hostProfile, tun), *seed)
	if err != nil {
		log.Fatalf("magnet: %v", err)
	}
	pair := net.Pairs[0]

	// MAGNET instruments both end hosts: transmit stages are stamped at the
	// sender and receive stages at the receiver, profiling the whole path.
	tr := trace.New(*sample, 64)
	pair.SrcHost.SetTracer(tr)
	pair.DstHost.SetTracer(tr)
	cap := capture.New(1 << 20)
	pair.SrcHost.SetCapture(cap)

	var bundle *telemetry.Bundle
	if *telemDir != "" {
		name := fmt.Sprintf("magnet_%s_p%d", core.SanitizeName(tun.Label()), *payload)
		bundle = net.AttachTelemetry(name, *seed, telemetry.Options{Enabled: true})
	}

	res, err := tools.NTTCP(pair, *count, *payload, 10*units.Minute)
	if err != nil {
		log.Fatalf("magnet: %v", err)
	}
	fmt.Printf("transfer: %v over %v (%s)\n\n", res.Throughput, res.Elapsed, tun.Label())

	if bundle != nil {
		bundle.CaptureEngine(eng.Executed, eng.HighWater)
		if err := core.WriteBundle(*telemDir, bundle); err != nil {
			log.Fatalf("magnet: telemetry: %v", err)
		}
		fmt.Println("== telemetry ==")
		fmt.Print(bundle.Summary())
		fmt.Println()
	}

	fmt.Println("== MAGNET path profile (sender) ==")
	fmt.Print(tr.Report())

	fmt.Println("\n== tcpdump: first segments ==")
	fmt.Print(cap.Dump(*dump))

	mss := pair.Src.Conn.MSS()
	quantum := 1 << pair.Dst.Conn.Config().WScale()
	st := cap.AnalyzeWindow(pair.Src.Flow(), mss, quantum)
	fmt.Println("\n== wire-level window analysis (peer advertisements) ==")
	fmt.Printf("samples %d  min %d  max %d  mean %.0f  MSS-aligned %.0f%%\n",
		st.Samples, st.Min, st.Max, st.Mean, st.MSSAlignedFraction*100)
	fmt.Printf("(MSS %d: the advertisement moves in whole-MSS steps — §3.5.1)\n", mss)

	if retx := cap.Retransmissions(); len(retx) > 0 {
		fmt.Printf("\nretransmissions on the wire: %d\n", len(retx))
	}

	sizes := cap.SegmentSizes()
	keys := make([]int, 0, len(sizes))
	for k := range sizes {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	fmt.Println("\n== outgoing segment sizes ==")
	for _, k := range keys {
		fmt.Printf("  %6d bytes × %d\n", k, sizes[k])
	}
}
