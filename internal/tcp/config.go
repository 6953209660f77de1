package tcp

import (
	"fmt"

	"tengig/internal/ipv4"
	"tengig/internal/units"
)

// RcvMSSMode selects how the receiver estimates the sender's MSS for
// window alignment (§3.5.1 and footnote 8 of the paper).
type RcvMSSMode int

const (
	// RcvMSSObserved tracks the largest payload seen, like Linux's
	// tcp_measure_rcv_mss. Until data arrives it assumes the receiver's own
	// MSS.
	RcvMSSObserved RcvMSSMode = iota
	// RcvMSSOwn always uses the receiver's own MSS — which can differ from
	// the sender's actual segment size, reproducing the paper's observation
	// that "the sender's MSS is not necessarily equal to the receiver's".
	RcvMSSOwn
)

// Default protocol constants (Linux 2.4 era).
const (
	// DefaultBuf is Linux 2.4's default socket buffer (tcp_rmem[1] =
	// 87380). After the advertisement reserve this yields the ~64 KB
	// default window the paper describes.
	DefaultBuf        = 87380
	DefaultInitCwnd   = 2 // initial congestion window, segments
	defaultMinRcvMSS  = 536
	MaxWindowUnscaled = 65535
)

// Default timer values.
const (
	DefaultRTOMin    = 200 * units.Millisecond
	DefaultRTOInit   = 3 * units.Second
	DefaultRTOMax    = 120 * units.Second
	DefaultDelAck    = 40 * units.Millisecond
	DefaultQuickAcks = 16 // segments acked immediately at connection start
)

// Config describes one TCP endpoint. The zero value is not valid; start
// from DefaultConfig.
type Config struct {
	// MTU of the outgoing interface; MSS = MTU - 40.
	MTU int
	// Timestamps enables RFC 1323 timestamps (12 header bytes per segment;
	// stock Linux behavior in the paper).
	Timestamps bool
	// WindowScale enables RFC 1323 window scaling, required for windows
	// beyond 64 KB (the paper's WAN runs).
	WindowScale bool
	// SndBuf and RcvBuf are the socket buffer sizes in bytes
	// (/proc/sys/net/ipv4/tcp_wmem, tcp_rmem).
	SndBuf, RcvBuf int
	// InitialCwnd is the initial congestion window in segments.
	InitialCwnd int
	// RTOMin, RTOInit, RTOMax bound the retransmission timer.
	RTOMin, RTOInit, RTOMax units.Time
	// DelAckTimeout is the delayed-acknowledgment timer.
	DelAckTimeout units.Time
	// SWSAvoidance keeps the advertised window MSS-aligned (Linux behavior,
	// paper footnote 6). Disabling it advertises raw free space.
	SWSAvoidance bool
	// AlignCwnd keeps the usable congestion window MSS-aligned (the
	// sender-side behavior of §3.5.1). Disabling it lets the sender fill
	// fractional windows with partial segments.
	AlignCwnd bool
	// TruesizeAccounting charges receive-buffer space by allocator block
	// size (skb truesize) rather than payload bytes, as Linux does. This is
	// what makes the paper's "oversized windows" rung matter even when the
	// raw bandwidth-delay product is small.
	TruesizeAccounting bool
	// RcvMSS selects the receiver MSS estimation mode (see RcvMSSMode).
	RcvMSS RcvMSSMode
	// AdvWinScale reserves 1/2^AdvWinScale of the receive buffer for
	// metadata overhead, like Linux's tcp_adv_win_scale (default 2: only
	// three quarters of the buffer is ever advertised).
	AdvWinScale int
	// RcvWindowSlowStart enables Linux's receive-window slow start
	// (tp->rcv_ssthresh): the advertised window starts small and grows per
	// in-order segment, quickly for buffer-efficient segments and slowly
	// for segments whose truesize dwarfs their payload (jumbo frames in
	// 16 KB blocks). With the default 64 KB buffers this is what caps the
	// usable window in the paper's Figure 3 and why 256 KB buffers
	// (Figure 4) recover the loss.
	RcvWindowSlowStart bool
	// SACK enables selective acknowledgments (RFC 2018; on by default in
	// Linux 2.4). With SACK the sender repairs multiple losses per window
	// in one round trip instead of NewReno's one-hole-per-RTT.
	SACK bool
	// SendChunk, when larger than the MSS, makes the sender emit
	// super-segments of up to this size (TSO's virtual MTU: the stack
	// segments once per chunk and the adapter re-segments to the wire
	// MSS). Zero disables.
	SendChunk int
	// NoDelay disables Nagle's algorithm.
	NoDelay bool
	// QuickAcks is how many initial segments are acknowledged immediately
	// before delayed acks engage (Linux quickack mode).
	QuickAcks int
	// BacklogFn, if set, reports additional receive-buffer usage outside
	// the connection's own queues — the host's not-yet-processed packet
	// backlog (Linux's sk_backlog charges rmem too). The advertised window
	// shrinks by this amount.
	BacklogFn func() int64

	// Local is this endpoint's address (diagnostics and packet headers).
	Local ipv4.Addr
}

// DefaultConfig returns the stock Linux-2.4-like endpoint configuration
// used as the paper's baseline: timestamps on, 64 KB buffers, SWS
// avoidance, MSS-aligned windows, truesize accounting.
func DefaultConfig(mtu int) Config {
	return Config{
		MTU:                mtu,
		Timestamps:         true,
		WindowScale:        false,
		SndBuf:             DefaultBuf,
		RcvBuf:             DefaultBuf,
		InitialCwnd:        DefaultInitCwnd,
		RTOMin:             DefaultRTOMin,
		RTOInit:            DefaultRTOInit,
		RTOMax:             DefaultRTOMax,
		DelAckTimeout:      DefaultDelAck,
		SWSAvoidance:       true,
		AlignCwnd:          true,
		TruesizeAccounting: true,
		SACK:               true,
		RcvMSS:             RcvMSSObserved,
		AdvWinScale:        2,
		RcvWindowSlowStart: true,
		QuickAcks:          DefaultQuickAcks,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.MTU < 68 {
		return fmt.Errorf("tcp: MTU %d too small", c.MTU)
	}
	if c.SndBuf <= 0 || c.RcvBuf <= 0 {
		return fmt.Errorf("tcp: non-positive socket buffers")
	}
	if c.InitialCwnd < 1 {
		return fmt.Errorf("tcp: initial cwnd %d < 1", c.InitialCwnd)
	}
	if c.RTOMin <= 0 || c.RTOInit <= 0 || c.RTOMax < c.RTOInit {
		return fmt.Errorf("tcp: bad RTO bounds")
	}
	if c.DelAckTimeout < 0 {
		return fmt.Errorf("tcp: negative delayed-ack timeout")
	}
	if c.AdvWinScale < 0 || c.AdvWinScale > 8 {
		return fmt.Errorf("tcp: AdvWinScale %d out of range", c.AdvWinScale)
	}
	return nil
}

// MSS returns the endpoint's maximum segment size as advertised in its SYN:
// MTU minus IP and TCP base headers. Timestamps further reduce per-segment
// payload but are not part of the advertised MSS, matching real TCP (an
// advertised MSS of 8960 with timestamps carries 8948 bytes of data — the
// paper's numbers). The pointer receiver keeps Conn.MSS, called per
// segment, from copying the whole Config.
func (c *Config) MSS() int { return c.MTU - ipv4.HeaderLen - BaseHeaderLen }

// WScale returns the window-scale shift needed to advertise RcvBuf, or 0.
func (c Config) WScale() int {
	if !c.WindowScale {
		return 0
	}
	s := 0
	for b := c.RcvBuf; b > MaxWindowUnscaled && s < 14; b >>= 1 {
		s++
	}
	return s
}
