// Package core runs the paper's experiments: throughput sweeps (Figures
// 3-5), latency sweeps (Figures 6-7), the §3.3 tuning ladder, multi-flow
// aggregation (Figure 2(c)), the transatlantic WAN record (§4), Table 1,
// fault campaigns, and tcpprobe runs. Hosts come from internal/host's
// calibrated profiles and tunings; the Figure 2(a)/(b) testbeds are
// internal/topo specs. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured results.
package core

import "tengig/internal/host"

// The names below alias internal/host only because the benchmark module
// compiles against them; everything else names host directly.

// Tuning is host.Tuning, kept for benchmark/.
type Tuning = host.Tuning

// PE2650 is host.PE2650, kept for benchmark/.
const PE2650 = host.PE2650

// WANXeon is host.WANXeon, kept for benchmark/.
const WANXeon = host.WANXeon

// Stock is host.Stock, kept for benchmark/.
func Stock(mtu int) Tuning { return host.Stock(mtu) }

// Optimized is host.Optimized, kept for benchmark/.
func Optimized(mtu int) Tuning { return host.Optimized(mtu) }
