// Command nttcp runs the paper's primary throughput measurement on a
// simulated testbed: a fixed count of fixed-size writes between two hosts,
// reporting application-to-application throughput and CPU loads.
//
// Usage:
//
//	nttcp [-profile pe2650] [-mtu 9000] [-count 32768] [-payload 16384]
//	      [-stock] [-switch] [-mmrbc 4096] [-buf 262144]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

func main() {
	log.SetFlags(0)
	var (
		profile = flag.String("profile", "pe2650", "host profile: pe2650|pe4600|e7505|itanium2|wanxeon")
		mtu     = flag.Int("mtu", 9000, "device MTU")
		count   = flag.Int("count", 32768, "number of application writes")
		payload = flag.Int("payload", 16384, "bytes per write")
		stock   = flag.Bool("stock", false, "use the stock (untuned) configuration")
		via     = flag.Bool("switch", false, "route through the FastIron 1500")
		mmrbc   = flag.Int("mmrbc", 0, "override PCI-X MMRBC (e.g. 512 or 4096)")
		buf     = flag.Int("buf", 0, "override socket buffer bytes")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	hostProfile, err := host.ParseProfile(*profile)
	if err != nil {
		log.Fatalf("nttcp: %v", err)
	}
	if err := host.ValidateMTU(*mtu); err != nil {
		log.Fatalf("nttcp: %v", err)
	}

	tun := host.Optimized(*mtu)
	if *stock {
		tun = host.Stock(*mtu)
	}
	if *mmrbc != 0 {
		tun = tun.WithMMRBC(*mmrbc)
	}
	if *buf != 0 {
		tun = tun.WithSockBuf(*buf)
	}

	spec := topo.BackToBack(hostProfile, tun)
	if *via {
		spec = topo.ThroughSwitch(hostProfile, tun)
	}
	net, err := topo.Compile(sim.NewEngine(*seed), spec, *seed)
	if err != nil {
		log.Fatalf("nttcp: %v", err)
	}
	res, err := tools.NTTCP(net.Pairs[0], *count, *payload, 10*units.Minute)
	if err != nil {
		log.Fatalf("nttcp: %v", err)
	}
	fmt.Printf("config:      %s (%s)\n", tun.Label(), *profile)
	fmt.Printf("transferred: %s in %v\n", units.ByteSize(res.Bytes), res.Elapsed)
	fmt.Printf("throughput:  %v\n", res.Throughput)
	fmt.Printf("cpu load:    sender %.2f, receiver %.2f\n", res.SenderLoad, res.ReceiverLoad)
	if res.Retransmits > 0 {
		fmt.Printf("retransmits: %d\n", res.Retransmits)
	}
	os.Exit(0)
}
