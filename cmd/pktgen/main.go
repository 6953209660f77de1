// Command pktgen runs the kernel packet generator between two simulated
// hosts: single-copy transmission that bypasses the TCP/IP stack,
// establishing the host's raw data-movement ceiling (§3.5.2).
//
// Usage:
//
//	pktgen [-profile pe2650] [-size 8160] [-count 100000] [-mmrbc 4096]
package main

import (
	"flag"
	"fmt"
	"log"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/paper"
)

func main() {
	log.SetFlags(0)
	var (
		profile = flag.String("profile", "pe2650", "host profile")
		size    = flag.Int("size", 8160, "IP datagram size")
		count   = flag.Int64("count", 100000, "packets to generate")
		mmrbc   = flag.Int("mmrbc", 4096, "PCI-X MMRBC")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	hostProfile, err := host.ParseProfile(*profile)
	if err != nil {
		log.Fatalf("pktgen: %v", err)
	}
	// The datagram size is the device MTU pktgen runs at.
	if err := host.ValidateMTU(*size); err != nil {
		log.Fatalf("pktgen: -size: %v", err)
	}

	tun := host.Optimized(*size).WithMMRBC(*mmrbc)
	res, err := core.PktgenRun(*seed, hostProfile, tun, *count, *size)
	if err != nil {
		log.Fatalf("pktgen: %v", err)
	}
	pps := float64(res.Sent) / res.Elapsed.Seconds()
	fmt.Printf("sent:       %d packets of %d bytes in %v\n", res.Sent, *size, res.Elapsed)
	fmt.Printf("rate:       %v (%.0f packets/s)\n", res.PayloadRate(*size), pps)
	fmt.Printf("paper:      %s at %s (PE2650, 8160-byte packets)\n",
		paper.Quote("multiflow.pktgen"), paper.Quote("multiflow.pktgen-rate"))
}
