// Command lsrecord replays the Internet2 Land Speed Record attempt of
// February 27, 2003: a single TCP stream from Sunnyvale to Geneva across
// the loaned OC-192 and transatlantic OC-48 circuits, with the paper's §4.1
// host tuning (jumbo frames, txqueuelen 10000, socket buffers at the
// bandwidth-delay product).
//
// Usage:
//
//	lsrecord [-duration 30] [-buf 0] [-queue 32]
package main

import (
	"flag"
	"fmt"
	"log"

	"tengig/internal/core"
	"tengig/internal/units"
	"tengig/internal/wan"
)

func main() {
	log.SetFlags(0)
	var (
		duration = flag.Int("duration", 30, "measured seconds (after slow-start warmup)")
		buf      = flag.Int("buf", 0, "socket buffer bytes (0 = tuned to the BDP)")
		queue    = flag.Int("queue", 32, "bottleneck router queue, MB (0 = unlimited)")
		rate     = flag.Bool("rate", false, "print per-second throughput samples")
		seed     = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if *duration <= 0 {
		log.Fatalf("lsrecord: -duration %d: must be positive", *duration)
	}

	pathCfg := wan.DefaultConfig()
	pathCfg.BottleneckQueue = units.ByteSize(*queue) * units.MB
	cfg := core.WANConfig{
		Seed:     *seed,
		Path:     pathCfg,
		SockBuf:  *buf,
		Duration: units.Time(*duration) * units.Second,
	}
	if *rate {
		cfg.SampleEvery = units.Second
	}
	res, err := core.RunWAN(cfg)
	if err != nil {
		log.Fatalf("lsrecord: %v", err)
	}

	fmt.Println("Internet2 Land Speed Record replay: Sunnyvale -> Geneva (10,037 km)")
	fmt.Printf("  RTT:                 %v\n", res.RTT)
	fmt.Printf("  bottleneck ceiling:  %v (OC-48 POS payload)\n", res.PayloadCeiling)
	fmt.Printf("  sustained:           %v (%.1f%% payload efficiency)\n",
		res.Throughput, res.Efficiency*100)
	fmt.Printf("  moved:               %v in %v\n", units.ByteSize(res.Bytes), res.Elapsed)
	fmt.Printf("  terabyte would take: %v\n", res.TimeToTerabyte)
	fmt.Printf("  loss:                %d drops, %d retransmits, %d timeouts\n",
		res.BottleneckDrops, res.Retransmits, res.Timeouts)
	fmt.Println()
	fmt.Println("paper: 2.38 Gb/s sustained; 23,888,060,000,000,000 meters-bits/sec;")
	fmt.Println("       a terabyte of data in less than an hour.")
	if res.Throughput > 0 {
		metersBits := 10037e3 * float64(res.Throughput)
		fmt.Printf("this run: %.3e meters-bits/sec\n", metersBits)
	}
	if *rate {
		fmt.Println("\nper-second throughput (ramp included):")
		for i, g := range res.Samples {
			fmt.Printf("  t=%3ds  %6.3f Gb/s\n", i+1, g)
		}
	}
}
