package host

import (
	"fmt"

	"tengig/internal/ipv4"
	"tengig/internal/mem"
	"tengig/internal/pci"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// Profile identifies one of the paper's host platforms.
type Profile string

// The paper's host platforms.
const (
	// PE2650 is the Dell PowerEdge 2650: dual 2.2 GHz Xeon, 400 MHz FSB,
	// ServerWorks GC-LE, dedicated 133 MHz PCI-X — the workhorse of the
	// LAN/SAN experiments (peaks at 4.11 Gb/s fully tuned).
	PE2650 Profile = "pe2650"
	// PE4600 is the Dell PowerEdge 4600: dual 2.4 GHz Xeon, GC-HE chipset
	// with ~50% better STREAM bandwidth but a 100 MHz PCI-X slot and a
	// chipset DMA read path that gives it no TCP advantage (§3.5.2).
	PE4600 Profile = "pe4600"
	// IntelE7505 is the Intel-provided dual 2.66 GHz Xeon with 533 MHz FSB
	// (E7505 chipset): 4.64 Gb/s essentially out of the box (§3.4).
	IntelE7505 Profile = "e7505"
	// ItaniumII is the 1 GHz quad-processor Itanium-II system that sank
	// 7.2 Gb/s of aggregated traffic (§3.4).
	ItaniumII Profile = "itanium2"
	// WANXeon is the record run's end host: dual 2.4 GHz Xeon, 2 GB,
	// dedicated 133 MHz PCI-X (§4.1).
	WANXeon Profile = "wanxeon"
)

// Profiles lists all platforms.
func Profiles() []Profile {
	return []Profile{PE2650, PE4600, IntelE7505, ItaniumII, WANXeon}
}

// ProfileConfig returns the calibrated host configuration for a profile.
// The constants below are this reproduction's calibration table: they are
// chosen so that the simulated experiments land on the paper's anchors
// (DESIGN.md §3) and are pinned by internal/core calibration tests.
func ProfileConfig(p Profile, name string, addr ipv4.Addr) Config {
	cfg := Config{
		Name: name,
		Addr: addr,
		CPUs: 2,
		Kernel: KernelConfig{
			Uniprocessor: false,
			Timestamps:   true,
			TxQueueLen:   1000,
		},
		PCI: pci.PCIX133(pci.MMRBCDefault),
	}
	switch p {
	case PE2650:
		cfg.Costs = CostConfig{
			Syscall:       1100 * units.Nanosecond,
			TCPTxSegment:  1600 * units.Nanosecond,
			TCPRxSegment:  1350 * units.Nanosecond,
			AckRx:         500 * units.Nanosecond,
			AckTx:         500 * units.Nanosecond,
			IRQEntry:      2000 * units.Nanosecond,
			IRQPerPacket:  800 * units.Nanosecond,
			NAPIPerPacket: 400 * units.Nanosecond,
			Timestamp:     150 * units.Nanosecond,
			AllocBase:     100 * units.Nanosecond,
			AllocPerOrder: 1250 * units.Nanosecond,
			ReadWakeup:    2900 * units.Nanosecond,
			SMPFactor:     1.45,
			SMPBounce:     1000 * units.Nanosecond,
			ChecksumBW:    units.FromGbps(10),
		}
		cfg.Mem = mem.Config{
			BusBW:         units.FromGbps(13.2),
			CPUCopyBW:     units.FromGbps(6.8),
			StreamBW:      units.FromGbps(8.6),
			DMAReadSetup:  850 * units.Nanosecond,
			DMAReadBW:     units.FromGbps(6.9),
			DMAWriteSetup: 200 * units.Nanosecond,
			DMAWriteBW:    units.FromGbps(7.5),
		}
	case PE4600:
		// Faster memory (GC-HE, interleaved) but a 100 MHz PCI-X slot and a
		// weaker chipset DMA read path: STREAM improves ~50%, TCP does not.
		cfg.Costs = ProfileConfig(PE2650, name, addr).Costs
		cfg.Mem = mem.Config{
			BusBW:         units.FromGbps(19),
			CPUCopyBW:     units.FromGbps(6.4),
			StreamBW:      units.FromGbps(12.8),
			DMAReadSetup:  900 * units.Nanosecond,
			DMAReadBW:     units.FromGbps(5.2),
			DMAWriteSetup: 250 * units.Nanosecond,
			DMAWriteBW:    units.FromGbps(6.5),
		}
		cfg.PCI = pci.PCIX100(pci.MMRBCDefault)
	case IntelE7505:
		// 533 MHz FSB: the CPU moves data faster though STREAM reports
		// within a few percent of the PE2650 (§3.4, §5) — the FSB, not raw
		// memory bandwidth, supplies the extra 13% of TCP throughput. Its
		// one measured oddity: TCP timestamps cost ~10% of throughput, so
		// the paper's out-of-box number was taken with timestamps off.
		cfg.Costs = ProfileConfig(PE2650, name, addr).Costs
		cfg.Costs.TCPTxSegment = 1150 * units.Nanosecond
		cfg.Costs.TCPRxSegment = 1100 * units.Nanosecond
		cfg.Costs.Timestamp = 2000 * units.Nanosecond
		cfg.Costs.AllocPerOrder = 600 * units.Nanosecond
		cfg.Costs.SMPFactor = 1.35
		cfg.Costs.SMPBounce = 800 * units.Nanosecond
		cfg.Mem = mem.Config{
			BusBW:         units.FromGbps(16),
			CPUCopyBW:     units.FromGbps(9.5),
			StreamBW:      units.FromGbps(8.9),
			DMAReadSetup:  150 * units.Nanosecond,
			DMAReadBW:     units.FromGbps(7.2),
			DMAWriteSetup: 150 * units.Nanosecond,
			DMAWriteBW:    units.FromGbps(8),
		}
	case ItaniumII:
		cfg.CPUs = 4
		cfg.Costs = CostConfig{
			Syscall:       700 * units.Nanosecond,
			TCPTxSegment:  1000 * units.Nanosecond,
			TCPRxSegment:  1000 * units.Nanosecond,
			AckRx:         400 * units.Nanosecond,
			AckTx:         400 * units.Nanosecond,
			IRQEntry:      700 * units.Nanosecond,
			IRQPerPacket:  600 * units.Nanosecond,
			NAPIPerPacket: 300 * units.Nanosecond,
			Timestamp:     120 * units.Nanosecond,
			AllocBase:     100 * units.Nanosecond,
			AllocPerOrder: 900 * units.Nanosecond,
			ReadWakeup:    2900 * units.Nanosecond,
			SMPFactor:     1.25,
			SMPBounce:     700 * units.Nanosecond,
			ChecksumBW:    units.FromGbps(12),
		}
		cfg.Mem = mem.Config{
			BusBW:         units.FromGbps(34),
			CPUCopyBW:     units.FromGbps(11),
			StreamBW:      units.FromGbps(21),
			DMAReadSetup:  250 * units.Nanosecond,
			DMAReadBW:     units.FromGbps(8.2),
			DMAWriteSetup: 120 * units.Nanosecond,
			DMAWriteBW:    units.FromGbps(8.4),
		}
	case WANXeon:
		// Dual 2.4 GHz Xeon, 2 GB: comfortably sustains the OC-48's
		// 2.38 Gb/s with jumbo frames.
		cfg.Costs = ProfileConfig(PE2650, name, addr).Costs
		cfg.Mem = ProfileConfig(PE2650, name, addr).Mem
		cfg.Mem.CPUCopyBW = units.FromGbps(6.3)
		cfg.Kernel.TxQueueLen = 10000
	default:
		panic(fmt.Sprintf("host: unknown profile %q", p))
	}
	return cfg
}

// NICKind names the adapter class a built host carries.
type NICKind string

// Adapter classes.
const (
	// TenGbE is the paper's Intel PRO/10GbE.
	TenGbE NICKind = "10g"
	// GbE is an e1000-class Gigabit Ethernet adapter: the sender class of
	// the aggregation experiments and the node class of Beowulf clusters.
	GbE NICKind = "1g"
)

// Build constructs a host from a calibrated profile and a tuning, with one
// adapter of the given kind at address ipv4.HostN(n). It is the one path
// from a profile and a tuning to a host; the topology compiler, which
// builds every simulated network, is its caller.
func Build(eng *sim.Engine, p Profile, t Tuning, kind NICKind, name string, n int) *Host {
	cfg := ProfileConfig(p, name, ipv4.HostN(n))
	cfg.Kernel.Uniprocessor = t.Uniprocessor
	cfg.Kernel.Timestamps = t.Timestamps
	cfg.Kernel.NAPI = t.NAPI
	cfg.Kernel.IRQRoundRobin = t.IRQRoundRobin
	cfg.Kernel.TxQueueLen = t.TxQueueLen
	cfg.PCI.MMRBC = t.MMRBC
	h := New(eng, cfg)
	h.AddNIC(t.NIC(kind))
	return h
}
