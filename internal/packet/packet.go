// Package packet defines the simulated packet that flows between hosts,
// switches, routers, and links. Packets carry byte-count metadata rather
// than payload bytes: the simulator models where every byte goes and what it
// costs, not its contents.
package packet

import (
	"fmt"

	"tengig/internal/ipv4"
	"tengig/internal/units"
)

// Protocol is the L4 protocol of a packet.
type Protocol uint8

// Supported protocols.
const (
	ProtoTCP Protocol = iota
	ProtoUDP
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Packet is one simulated datagram. The L4 module (TCP) attaches its segment
// state via Seg; lower layers treat packets opaquely and only use the byte
// counts for timing.
type Packet struct {
	ID     uint64
	FlowID uint32
	Src    ipv4.Addr
	Dst    ipv4.Addr
	Proto  Protocol

	// Payload is the L4 user-data length in bytes.
	Payload int
	// L4Header is the transport header length (TCP header + options).
	L4Header int

	// Seg carries the TCP segment for ProtoTCP packets.
	Seg any

	// SentAt is stamped when the packet first enters its source NIC; used
	// for latency measurement and tracing.
	SentAt units.Time

	// Hops counts store-and-forward elements traversed (diagnostics).
	Hops int

	// Corrupt marks a payload damaged in flight (netem fault injection).
	// The receiving host's checksum verification drops corrupt packets
	// before they reach the transport layer, exactly as a bad TCP checksum
	// would.
	Corrupt bool

	// pool is the free list this packet came from (nil for plain
	// allocations, e.g. pktgen's UDP packets). Release returns the packet
	// there, so packets always circulate back to the host that allocated
	// them regardless of where they are consumed or dropped.
	pool *Pool
}

// IPLen returns the IP datagram length: payload plus transport and IP
// headers. This is the quantity constrained by the MTU.
func (p *Packet) IPLen() int { return p.Payload + p.L4Header + ipv4.HeaderLen }

// String renders a compact description for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %v->%v len=%d", p.ID, p.Proto, p.Src, p.Dst, p.IPLen())
}

// CloneUnpooled returns a pool-free copy of the packet: all metadata fields
// are duplicated but the clone's Release is a no-op, so it can be injected
// into the simulation (netem duplication) without disturbing the origin
// pool's leak accounting. Seg is copied shallowly — callers that outlive the
// original packet must deep-copy the segment themselves, because releasing
// the original recycles its segment.
func (pk *Packet) CloneUnpooled() *Packet {
	cp := *pk
	cp.pool = nil
	return &cp
}

// Pool is a free list of Packets scoped to one simulation (single-goroutine
// by contract, so no locking). Hosts draw transmit packets from their pool
// and every consumer — delivery, qdisc drop, ring overrun, switch drop-tail,
// netem fault — calls Release at the point the packet leaves the simulation.
//
// The pool keeps get/release tallies so an invariant auditor can prove that
// every packet drawn during a run was released exactly once (Outstanding
// returns to zero at quiescence). The counters are two integer increments on
// paths that already touch the free list, so they cost nothing measurable.
type Pool struct {
	free []*Packet
	gets int64
	puts int64
	// ReleaseSeg, when set, recycles pk.Seg as the packet is released. The
	// hook keeps layering intact: this package cannot name *tcp.Segment,
	// but the host that owns both pools can.
	ReleaseSeg func(seg any)
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Gets returns the number of packets drawn from the pool.
func (p *Pool) Gets() int64 { return p.gets }

// Puts returns the number of packets released back to the pool.
func (p *Pool) Puts() int64 { return p.puts }

// Outstanding returns packets drawn but not yet released — zero at
// quiescence on a leak-free run.
func (p *Pool) Outstanding() int64 { return p.gets - p.puts }

// Get returns a zeroed packet bound to this pool.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.gets++
	if n := len(p.free); n > 0 {
		pk := p.free[n-1]
		p.free = p.free[:n-1]
		return pk
	}
	return &Packet{pool: p}
}

// GetCopy returns a packet drawn from p holding v's fields (Seg included)
// but bound to p, so its Release comes back here whichever pool v came
// from. A parallel-DES shard rebuilds a packet that crossed from another
// shard this way: only the value crosses goroutines.
func (p *Pool) GetCopy(v *Packet) *Packet {
	pk := p.Get()
	*pk = *v
	pk.pool = p
	return pk
}

// Release returns the packet to its origin pool, first recycling its
// attached segment through the pool's ReleaseSeg hook. Every field —
// including Seg — is cleared, so a recycled packet can never leak a stale
// segment pointer into its next life. Packets without a pool (plain
// allocations) are left to the garbage collector; Release is a safe no-op
// for them and for nil, so release points need no conditionals.
func (pk *Packet) Release() {
	if pk == nil || pk.pool == nil {
		return
	}
	p := pk.pool
	p.puts++
	if pk.Seg != nil && p.ReleaseSeg != nil {
		p.ReleaseSeg(pk.Seg)
	}
	*pk = Packet{pool: p}
	p.free = append(p.free, pk)
}

// IDGen hands out unique packet IDs. The zero value is ready to use; set
// Base to a disjoint value per generator (e.g. the host address shifted
// high) so IDs are unique across the whole simulation.
type IDGen struct {
	Base uint64
	next uint64
}

// Next returns a fresh ID (Base+1, Base+2, ...).
func (g *IDGen) Next() uint64 {
	g.next++
	return g.Base + g.next
}
