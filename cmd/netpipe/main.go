// Command netpipe measures ping-pong latency across payload sizes on a
// simulated testbed, reproducing the methodology behind the paper's
// Figures 6 and 7.
//
// Usage:
//
//	netpipe [-profile pe2650] [-mtu 9000] [-switch] [-nocoalesce]
//	        [-max 1024] [-reps 20]
package main

import (
	"flag"
	"fmt"
	"log"

	"tengig/internal/core"
	"tengig/internal/host"
)

func main() {
	log.SetFlags(0)
	var (
		profile = flag.String("profile", "pe2650", "host profile")
		mtu     = flag.Int("mtu", 9000, "device MTU")
		via     = flag.Bool("switch", false, "route through the FastIron 1500")
		noco    = flag.Bool("nocoalesce", false, "disable interrupt coalescing (Figure 7)")
		max     = flag.Int("max", 1024, "largest payload")
		reps    = flag.Int("reps", 20, "measured round trips per point")
		seed    = flag.Int64("seed", 1, "simulation seed")
	)
	flag.Parse()
	hostProfile, err := host.ParseProfile(*profile)
	if err != nil {
		log.Fatalf("netpipe: %v", err)
	}
	if err := host.ValidateMTU(*mtu); err != nil {
		log.Fatalf("netpipe: %v", err)
	}

	tun := host.Optimized(*mtu)
	if *noco {
		tun = tun.WithoutCoalescing()
	}
	var payloads []int
	for p := 1; p <= *max; p *= 2 {
		payloads = append(payloads, p)
	}
	pts, err := core.LatencyConfig{
		Seed: *seed, Profile: hostProfile, Tuning: tun,
		Payloads: payloads, Reps: *reps, ViaSwitch: *via,
	}.Run()
	if err != nil {
		log.Fatalf("netpipe: %v", err)
	}
	fmt.Printf("# %s via-switch=%v coalescing=%v\n", tun.Label(), *via, !*noco)
	fmt.Printf("%-10s %s\n", "payload", "one-way latency")
	for _, pt := range pts {
		fmt.Printf("%-10d %v\n", pt.Payload, pt.OneWay)
	}
}
