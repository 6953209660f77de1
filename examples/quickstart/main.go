// Quickstart: build the paper's Figure 2(a) testbed — two Dell PE2650s
// joined by a 10GbE crossover cable — apply the full §3.3 tuning, and
// measure a bulk transfer and the one-byte latency.
package main

import (
	"fmt"
	"log"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

func main() {
	log.SetFlags(0)

	// The fully tuned configuration that produced the paper's headline
	// 4.11 Gb/s: MMRBC 4096, UP kernel, 256 KB socket buffers, MTU 8160.
	tuning := host.Optimized(8160)
	fmt.Printf("configuration: %s\n\n", tuning.Label())

	// Throughput: NTTCP-style fixed-count transfer.
	net, err := topo.Compile(sim.NewEngine(1), topo.BackToBack(host.PE2650, tuning), 1)
	if err != nil {
		log.Fatal(err)
	}
	pair := net.Pairs[0]
	res, err := tools.NTTCP(pair, 8192, 16384, units.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throughput:  %v  (paper: 4.11 Gb/s)\n", res.Throughput)
	fmt.Printf("cpu load:    sender %.2f, receiver %.2f\n\n", res.SenderLoad, res.ReceiverLoad)

	// Latency: NetPipe-style one-byte ping-pong.
	pts, err := core.LatencyConfig{
		Seed: 1, Profile: host.PE2650, Tuning: host.Optimized(9000),
		Payloads: []int{1}, Reps: 20,
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("latency:     %v one-way  (paper: 19 us)\n", pts[0].OneWay)

	// The host's memory ceiling for context (§3.5.2).
	fmt.Printf("STREAM:      %v  (paper: ~8.6 Gb/s on the PE2650)\n",
		tools.Stream(pair.SrcHost))
}
