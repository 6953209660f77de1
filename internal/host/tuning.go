package host

import (
	"fmt"

	"tengig/internal/ethernet"
	"tengig/internal/nic"
	"tengig/internal/pci"
	"tengig/internal/tcp"
	"tengig/internal/units"
)

// Tuning captures every knob the paper's §3.3 optimization ladder turns.
// Stock() is the baseline; the With* methods produce the successive rungs.
type Tuning struct {
	// MTU is the device MTU (1500, 8160, 9000, 16000).
	MTU int
	// MMRBC is the PCI-X maximum memory read byte count (512 stock, 4096
	// optimized).
	MMRBC int
	// Uniprocessor selects the UP kernel (stock kernels were SMP).
	Uniprocessor bool
	// SockBuf is the socket buffer size (64 KB default, 256 KB oversized).
	SockBuf int
	// Timestamps enables TCP timestamps (on in stock Linux).
	Timestamps bool
	// WindowScale enables RFC 1323 window scaling (needed on the WAN).
	WindowScale bool
	// CoalesceDelay is the adapter interrupt delay (5 us stock; 0 = off).
	CoalesceDelay units.Time
	// NAPI enables the newer receive API (a "newer kernels" extension).
	NAPI bool
	// NoSACK disables selective acknowledgments (on by default, as in
	// Linux 2.4) — an ablation knob.
	NoSACK bool
	// FractionalWindows disables the MSS alignment of both the advertised
	// and congestion windows — the first of §3.5.1's "better solutions"
	// ("allow for fractional MSS increments when the number of segments
	// per window is small").
	FractionalWindows bool
	// RcvMSSOwn makes the receiver align its window to its own MSS rather
	// than the observed sender MSS — the footnote-8 estimation mismatch.
	RcvMSSOwn bool
	// IRQRoundRobin spreads interrupts across CPUs instead of the P4 Xeon
	// SMP pinning the paper describes (ablation).
	IRQRoundRobin bool
	// TSO enables TCP segmentation offload (extension).
	TSO bool
	// TxQueueLen is the qdisc depth.
	TxQueueLen int
}

// Stock returns the paper's baseline configuration at the given MTU:
// SMP kernel, MMRBC 512, default 64 KB windows, timestamps on, 5 us
// interrupt coalescing.
func Stock(mtu int) Tuning {
	if !ethernet.ValidMTU(mtu) {
		panic(fmt.Sprintf("host: invalid MTU %d", mtu))
	}
	return Tuning{
		MTU:           mtu,
		MMRBC:         pci.MMRBCDefault,
		SockBuf:       tcp.DefaultBuf,
		Timestamps:    true,
		WindowScale:   true, // on by default in Linux 2.4 (tcp_window_scaling)
		CoalesceDelay: 5 * units.Microsecond,
		TxQueueLen:    1000,
	}
}

// WithMMRBC returns the tuning with the PCI-X burst size raised (§3.3 rung
// 2: "Stock TCP + Increased PCI-X Burst Size").
func (t Tuning) WithMMRBC(mmrbc int) Tuning { t.MMRBC = mmrbc; return t }

// WithUP returns the tuning on a uniprocessor kernel (§3.3 rung 3).
func (t Tuning) WithUP() Tuning { t.Uniprocessor = true; return t }

// WithSockBuf returns the tuning with oversized windows (§3.3 rung 4).
func (t Tuning) WithSockBuf(b int) Tuning { t.SockBuf = b; return t }

// WithMTU returns the tuning at a different device MTU (§3.3 rung 5).
func (t Tuning) WithMTU(mtu int) Tuning { t.MTU = mtu; return t }

// WithoutTimestamps disables TCP timestamps (§3.4's E7505 observation).
func (t Tuning) WithoutTimestamps() Tuning { t.Timestamps = false; return t }

// WithoutCoalescing disables interrupt coalescing (Figure 7).
func (t Tuning) WithoutCoalescing() Tuning { t.CoalesceDelay = 0; return t }

// WithWindowScale enables window scaling and sets WAN-sized buffers.
func (t Tuning) WithWindowScale(buf int) Tuning {
	t.WindowScale = true
	t.SockBuf = buf
	return t
}

// WithNAPI enables the NAPI receive path (extension ablation).
func (t Tuning) WithNAPI() Tuning { t.NAPI = true; return t }

// WithoutSACK disables selective acknowledgments (ablation).
func (t Tuning) WithoutSACK() Tuning { t.NoSACK = true; return t }

// WithFractionalWindows applies §3.5.1's proposed fix: windows no longer
// snap to whole-MSS multiples (ablation).
func (t Tuning) WithFractionalWindows() Tuning { t.FractionalWindows = true; return t }

// WithRcvMSSOwn applies the footnote-8 receiver-MSS mismatch (ablation).
func (t Tuning) WithRcvMSSOwn() Tuning { t.RcvMSSOwn = true; return t }

// WithIRQRoundRobin distributes interrupts across CPUs (ablation of the
// §3.3 remark that the P4 Xeon SMP kernel pins each interrupt to one CPU).
func (t Tuning) WithIRQRoundRobin() Tuning { t.IRQRoundRobin = true; return t }

// WithTSO enables TCP segmentation offload (extension ablation).
func (t Tuning) WithTSO() Tuning { t.TSO = true; return t }

// Optimized returns the paper's fully tuned LAN configuration at the given
// MTU: MMRBC 4096, UP kernel, 256 KB socket buffers.
func Optimized(mtu int) Tuning {
	return Stock(mtu).WithMMRBC(pci.MMRBCMax).WithUP().WithSockBuf(256 * 1024)
}

// Label renders a figure-legend-style description ("9000MTU,UP,4096PCI,
// 256kbuf"), matching the paper's plot labels.
func (t Tuning) Label() string {
	k := "SMP"
	if t.Uniprocessor {
		k = "UP"
	}
	s := fmt.Sprintf("%dMTU,%s,%dPCI,%dkbuf", t.MTU, k, t.MMRBC, t.SockBuf/1024)
	if !t.Timestamps {
		s += ",nots"
	}
	if t.CoalesceDelay == 0 {
		s += ",nocoal"
	}
	if t.NAPI {
		s += ",napi"
	}
	if t.TSO {
		s += ",tso"
	}
	return s
}

// TCPConfig derives the TCP endpoint configuration for this tuning. The
// MTU is set by the host socket layer from the NIC.
func (t Tuning) TCPConfig() tcp.Config {
	cfg := tcp.DefaultConfig(t.MTU)
	cfg.SndBuf = t.SockBuf
	cfg.RcvBuf = t.SockBuf
	cfg.Timestamps = t.Timestamps
	cfg.WindowScale = t.WindowScale
	cfg.SACK = !t.NoSACK
	if t.FractionalWindows {
		cfg.SWSAvoidance = false
		cfg.AlignCwnd = false
	}
	if t.RcvMSSOwn {
		cfg.RcvMSS = tcp.RcvMSSOwn
	}
	return cfg
}

// NIC derives an adapter configuration from the tuning: the kind's adapter
// at the tuning's MTU, with the tuning's interrupt coalescing delay and TSO
// setting applied.
func (t Tuning) NIC(kind NICKind) nic.Config {
	cfg := nic.TenGbE(t.MTU)
	if kind == GbE {
		cfg = nic.GbE(t.MTU)
	}
	cfg.CoalesceDelay = t.CoalesceDelay
	cfg.TSO = t.TSO
	return cfg
}
