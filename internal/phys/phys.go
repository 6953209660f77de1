// Package phys models the physical layer: full-duplex point-to-point links
// with serialization at line rate, propagation delay, and a pluggable framing
// model (Ethernet for LAN/SAN segments, SONET/POS for the WAN circuits).
//
// Links never drop packets; loss happens in queues (switch/router output
// ports) or by explicit injection (netem).
package phys

import (
	"tengig/internal/ethernet"
	"tengig/internal/packet"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// Receiver consumes packets delivered by a link.
type Receiver interface {
	Receive(p *packet.Packet)
}

// Framing converts IP datagram lengths into wire occupancy and derates the
// line rate for transport overhead that is proportional to time rather than
// to frames (e.g. SONET section/line/path overhead).
type Framing interface {
	// WireBytes returns the wire bytes consumed by a datagram of ipLen.
	WireBytes(ipLen int) int
	// Derate returns the fraction of nominal line rate available to frames.
	Derate() float64
	// Name identifies the framing for diagnostics.
	Name() string
}

// EthernetFraming is standard Ethernet: 38 bytes of per-frame overhead
// (header, CRC, preamble, IFG) and full use of the line rate.
type EthernetFraming struct{}

// WireBytes implements Framing.
func (EthernetFraming) WireBytes(ipLen int) int { return ethernet.WireBytes(ipLen) }

// Derate implements Framing.
func (EthernetFraming) Derate() float64 { return 1.0 }

// Name implements Framing.
func (EthernetFraming) Name() string { return "ethernet" }

// POSFraming is Packet-over-SONET with PPP-in-HDLC encapsulation: 9 bytes of
// per-frame overhead (flag, address/control, protocol, FCS-32) and the SONET
// SPE derate — an OC-48 at 2.48832 Gb/s line rate carries 2.405376 Gb/s of
// payload envelope, the ratio 87*9/(90*9*... ) ≈ 0.9667 used here.
type POSFraming struct{}

// SPEDerate is the fraction of SONET line rate available to the payload
// envelope (2405.376 / 2488.32).
const SPEDerate = 2405.376 / 2488.32

// WireBytes implements Framing.
func (POSFraming) WireBytes(ipLen int) int { return ipLen + 9 }

// Derate implements Framing.
func (POSFraming) Derate() float64 { return SPEDerate }

// Name implements Framing.
func (POSFraming) Name() string { return "pos" }

// FiberDelay returns the propagation delay of km kilometers of fiber at the
// canonical 4.9 microseconds per kilometer.
func FiberDelay(km float64) units.Time {
	return units.Time(km * 4.9 * float64(units.Microsecond))
}

// Port is one direction of a link: a serializer at (derated) line rate
// followed by a propagation delay into a Receiver.
type Port struct {
	eng     *sim.Engine
	name    string
	wire    *sim.Pipe
	framing Framing
	prop    units.Time
	dst     Receiver
	packets int64

	// Per-packet callbacks bound once so Send builds no closures: the packet
	// rides the event argument through serialization and propagation.
	wireDoneCb func(any) // serialization complete → start propagation
	deliverCb  func(any) // propagation complete → hand to receiver

	// handoff, when set, replaces the propagation leg: the packet is given
	// to the hook at serialization-complete time instead of being scheduled
	// for local delivery. Parallel DES uses it on shard-boundary ports to
	// divert the packet to the shard that owns the receiving device.
	handoff func(*packet.Packet)
}

// NewPort builds a transmit port. rate is the nominal line rate; prop is the
// one-way propagation delay. The destination is attached with SetDst.
func NewPort(eng *sim.Engine, name string, rate units.Bandwidth, prop units.Time, f Framing) *Port {
	if prop < 0 {
		panic("phys: negative propagation delay")
	}
	effective := units.Bandwidth(float64(rate) * f.Derate())
	p := &Port{
		eng:     eng,
		name:    name,
		wire:    sim.NewPipe(eng, name+"/wire", effective),
		framing: f,
		prop:    prop,
	}
	p.wireDoneCb = func(x any) {
		if p.handoff != nil {
			p.handoff(x.(*packet.Packet))
			return
		}
		p.eng.AfterCall(p.prop, p.deliverCb, x)
	}
	p.deliverCb = func(x any) { p.dst.Receive(x.(*packet.Packet)) }
	return p
}

// SetHandoff installs (or, with nil, removes) a shard-boundary hook: instead
// of scheduling local delivery after the propagation delay, the port hands
// the packet to fn at serialization-complete time. The hook owns the packet
// and is responsible for delivering a copy prop later on the shard that owns
// the receiver — see Prop and Deliver.
func (p *Port) SetHandoff(fn func(*packet.Packet)) { p.handoff = fn }

// Prop returns the port's one-way propagation delay.
func (p *Port) Prop() units.Time { return p.prop }

// Deliver hands a packet to the attached receiver, exactly as the
// propagation-complete event would. Parallel DES injects this (bound once
// per boundary port) as the cross-shard delivery callback.
func (p *Port) Deliver(x any) { p.deliverCb(x) }

// SetDst attaches the receiving end.
func (p *Port) SetDst(r Receiver) { p.dst = r }

// Dst returns the attached receiver (nil if unattached).
func (p *Port) Dst() Receiver { return p.dst }

// Rate returns the effective (derated) serialization rate.
func (p *Port) Rate() units.Bandwidth { return p.wire.Rate() }

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Busy returns how much serialization work is queued on the port.
func (p *Port) Busy() units.Time { return p.wire.Backlog() }

// Utilization returns the fraction of time the wire has been serializing.
func (p *Port) Utilization() float64 { return p.wire.Utilization() }

// Packets returns the number of packets sent.
func (p *Port) Packets() int64 { return p.packets }

// Send serializes the packet onto the wire; it is delivered to the receiver
// after serialization plus propagation. Panics if no receiver is attached.
func (p *Port) Send(pk *packet.Packet) {
	if p.dst == nil {
		panic("phys: send on unattached port " + p.name)
	}
	p.packets++
	wb := p.framing.WireBytes(pk.IPLen())
	p.wire.SendCall(wb, p.wireDoneCb, pk)
}

// Link is a full-duplex point-to-point connection: two independent ports.
type Link struct {
	AtoB *Port
	BtoA *Port
}

// NewLink builds a symmetric full-duplex link.
func NewLink(eng *sim.Engine, name string, rate units.Bandwidth, prop units.Time, f Framing) *Link {
	return &Link{
		AtoB: NewPort(eng, name+"/a>b", rate, prop, f),
		BtoA: NewPort(eng, name+"/b>a", rate, prop, f),
	}
}

// Connect attaches the two endpoints: a receives what b sends and vice
// versa.
func (l *Link) Connect(a, b Receiver) {
	l.AtoB.SetDst(b)
	l.BtoA.SetDst(a)
}
