// Command iperf measures raw bandwidth on a simulated testbed over a set
// time (the paper's secondary tool: "Iperf is well suited for measuring raw
// bandwidth ... in no case does Iperf yield results significantly contrary
// to those of NTTCP"), with the paper's loadavg-style sampling.
//
// Usage:
//
//	iperf [-profile pe2650] [-mtu 9000] [-seconds 1] [-stock] [-switch]
package main

import (
	"flag"
	"fmt"
	"log"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

func main() {
	log.SetFlags(0)
	var (
		profile = flag.String("profile", "pe2650", "host profile")
		mtu     = flag.Int("mtu", 9000, "device MTU")
		seconds = flag.Float64("seconds", 1, "measurement duration")
		stock   = flag.Bool("stock", false, "use the stock configuration")
		via     = flag.Bool("switch", false, "route through the FastIron 1500")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	hostProfile, err := host.ParseProfile(*profile)
	if err != nil {
		log.Fatalf("iperf: %v", err)
	}
	if err := host.ValidateMTU(*mtu); err != nil {
		log.Fatalf("iperf: %v", err)
	}

	tun := host.Optimized(*mtu)
	if *stock {
		tun = host.Stock(*mtu)
	}
	spec := topo.BackToBack(hostProfile, tun)
	if *via {
		spec = topo.ThroughSwitch(hostProfile, tun)
	}
	net, err := topo.Compile(sim.NewEngine(*seed), spec, *seed)
	if err != nil {
		log.Fatalf("iperf: %v", err)
	}
	dur := units.FromSeconds(*seconds)
	res, err := tools.IperfSampled(net.Pairs[0], dur, dur/10)
	if err != nil {
		log.Fatalf("iperf: %v", err)
	}
	fmt.Printf("config:     %s (%s)\n", tun.Label(), *profile)
	fmt.Printf("interval:   %v  transferred %s\n", res.Elapsed, units.ByteSize(res.Bytes))
	fmt.Printf("bandwidth:  %v\n", res.Throughput)
	fmt.Printf("cpu load:   sender %.2f (peak %.2f), receiver %.2f (peak %.2f), %d samples\n",
		res.SenderLoad, res.SenderPeakLoad, res.ReceiverLoad, res.ReceiverPeakLoad, res.LoadSamples)
}
