// Package tengig is a simulation-based reproduction of "Optimizing
// 10-Gigabit Ethernet for Networks of Workstations, Clusters, and Grids: A
// Case Study" (Feng et al., SC 2003).
//
// The library lives under internal/: a discrete-event simulation kernel
// (internal/sim), a full TCP implementation with the Linux-2.4 window
// behaviors the paper analyzes (internal/tcp), hardware substrates for the
// era's hosts — PCI-X buses, chipset DMA engines, memory subsystems, buddy
// allocation, 10GbE adapters with interrupt coalescing (internal/pci,
// internal/mem, internal/alloc, internal/nic) — plus switches, WAN routers,
// measurement tools, and the calibrated experiment harness
// (internal/fabric, internal/wan, internal/tools, internal/core).
//
// internal/paper holds every experiment of the paper's evaluation and one
// table of the paper's claims. The cmd/sweep binary runs the experiments
// and prints each one's data and claims:
//
//	go run ./cmd/sweep -all
//
// TestClaims in internal/core checks every claim and regenerates the tables
// of EXPERIMENTS.md, which records paper-vs-measured for every experiment.
package tengig
