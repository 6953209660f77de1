// lanopt walks the paper's §3.3 optimization ladder rung by rung on the
// PE2650 pair, at both the standard and jumbo MTU, then explores the
// non-standard MTUs of Figure 5 — the narrative arc of the LAN/SAN section.
package main

import (
	"fmt"
	"log"

	"tengig/internal/core"
	"tengig/internal/host"
)

func measure(name string, t host.Tuning) {
	res, err := core.SweepConfig{
		Seed: 1, Profile: host.PE2650, Tuning: t,
		Payloads: []int{4096, 8148, 8948, 16384}, Count: 3000,
		Workers: -1, // independent points, one worker per CPU
	}.Run()
	if err != nil {
		log.Fatal(err)
	}
	_, peak := res.Peak()
	fmt.Printf("  %-22s %-34s peak %6.2f Gb/s  mean %6.2f Gb/s\n",
		name, t.Label(), peak.Gbps(), res.Mean().Gbps())
}

func main() {
	log.SetFlags(0)

	fmt.Println("§3.3 ladder at the standard 1500-byte MTU (paper: 1.8 -> ~1.8 -> 2.15 -> 2.47):")
	measure("stock", host.Stock(1500))
	measure("+MMRBC 4096", host.Stock(1500).WithMMRBC(4096))
	measure("+UP kernel", host.Stock(1500).WithMMRBC(4096).WithUP())
	measure("+256KB windows", host.Optimized(1500))
	fmt.Println()

	fmt.Println("§3.3 ladder with 9000-byte jumbo frames (paper: 2.7 -> 3.6 -> ~3.6 -> 3.9):")
	measure("stock", host.Stock(9000))
	measure("+MMRBC 4096", host.Stock(9000).WithMMRBC(4096))
	measure("+UP kernel", host.Stock(9000).WithMMRBC(4096).WithUP())
	measure("+256KB windows", host.Optimized(9000))
	fmt.Println()

	fmt.Println("Figure 5's non-standard MTUs (paper: 8160 -> 4.11, 16000 -> 4.09):")
	measure("MTU 8160 (8KB block)", host.Optimized(8160))
	measure("MTU 9000 (16KB block)", host.Optimized(9000))
	measure("MTU 16000 (max)", host.Optimized(16000))
	fmt.Println()
	fmt.Println("An 8160-byte MTU lets payload + TCP/IP + Ethernet headers fit a")
	fmt.Println("single 8 KB allocator block; 9000 bytes forces 16 KB blocks and")
	fmt.Println("wastes ~7 KB per packet (§3.3's memory-allocation observation).")
}
