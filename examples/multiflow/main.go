// multiflow reproduces §3.5.2's aggregation experiments: GbE hosts funneled
// through the FastIron 1500 into a single 10GbE host, in both directions
// and across one or two adapters — the tests the paper uses to prove that
// neither the PCI-X bus, the adapter, nor the receive path (relative to
// transmit) is the bottleneck, leaving the host's ability to move data.
//
// The three aggregation runs are independent simulations, so they execute
// across the worker pool (one engine per run); the results are identical
// to running them back to back.
package main

import (
	"fmt"
	"log"

	"tengig/internal/core"
	"tengig/internal/host"
	"tengig/internal/topo"
	"tengig/internal/units"
)

func spec(label string, reverse bool, nics int) core.MultiFlowSpec {
	return core.MultiFlowSpec{
		Label: label, Seed: 1, Duration: 200 * units.Millisecond,
		Spec: topo.Aggregation(host.PE2650, host.Optimized(9000), 6, reverse, nics),
	}
}

func main() {
	log.SetFlags(0)

	results, err := core.RunMultiFlows([]core.MultiFlowSpec{
		spec("receive", false, 1),
		spec("transmit", true, 1),
		spec("two-adapters", false, 2),
	}, -1)
	if err != nil {
		log.Fatal(err)
	}
	rx, tx, two := results[0], results[1], results[2]

	fmt.Printf("receive:  6 GbE senders -> one 10GbE PE2650: %v\n", rx.Aggregate)
	for i, f := range rx.PerFlow {
		fmt.Printf("          flow %d: %v\n", i+1, f)
	}

	fmt.Printf("transmit: one 10GbE PE2650 -> 6 GbE hosts:   %v\n", tx.Aggregate)
	fmt.Printf("tx/rx = %.2f  (paper: \"statistically equal performance\")\n\n",
		tx.Aggregate.Gbps()/rx.Aggregate.Gbps())

	fmt.Printf("two adapters on independent buses: %v (one adapter: %v)\n",
		two.Aggregate, rx.Aggregate)
	fmt.Println("paper: \"statistically identical ... we can therefore rule out the")
	fmt.Println("PCI-X bus as a primary bottleneck\"")

	// pktgen establishes the single-copy ceiling the paper compares against.
	res, err := core.PktgenRun(1, host.PE2650, host.Optimized(8160), 50000, 8160)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npktgen ceiling: %v (paper: 5.5 Gb/s; TCP reaches ~75%% of it)\n",
		res.PayloadRate(8160))
}
