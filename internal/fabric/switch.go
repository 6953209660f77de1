package fabric

import (
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// FastIron builds the paper's Foundry FastIron 1500 class chassis switch:
// store-and-forward Ethernet with multi-microsecond fabric latency (the
// observed back-to-back vs through-switch delta is ~6 us) and a backplane
// far exceeding any port group in these tests.
func FastIron(eng *sim.Engine, name string) *Node {
	return NewNode(eng, name, 5800*units.Nanosecond, 480*units.GbitPerSecond)
}

// Attachment links a device (a host NIC adapter, which implements
// phys.Receiver) to a switch port.
type Attachment struct {
	// ToDevice is the switch's transmit port toward the device.
	ToDevice *phys.Port
	// ToSwitch is the device's transmit port toward the switch.
	ToSwitch *phys.Port
	// PortIdx is the switch port index.
	PortIdx int
}

// AttachDevice wires a device to the switch with a full-duplex Ethernet
// link at rate and one-way propagation prop. The device's transmit port
// (Attachment.ToSwitch) must be attached to its NIC; traffic for addresses
// routed to this port leaves through ToDevice. queueCap bounds the output
// queue toward the device.
//
// The two directions get distinct names — linkName/up toward the switch,
// linkName/down toward the device — so per-direction trace and telemetry
// output stays attributable on a full-duplex link.
func AttachDevice(eng *sim.Engine, n *Node, dev phys.Receiver, linkName string,
	rate units.Bandwidth, prop units.Time, queueCap units.ByteSize) Attachment {
	up := phys.NewPort(eng, linkName+"/up", rate, prop, phys.EthernetFraming{})
	down := phys.NewPort(eng, linkName+"/down", rate, prop, phys.EthernetFraming{})
	// Device sends up into the switch; switch sends down to the device.
	up.SetDst(n.In())
	down.SetDst(dev)
	idx := n.AddPort(down, queueCap)
	return Attachment{ToDevice: down, ToSwitch: up, PortIdx: idx}
}

// Trunk is an inter-switch link: an output port on each node transmitting
// into the other's forwarding path.
type Trunk struct {
	// AtoB is a's transmit port toward b; BtoA the reverse.
	AtoB *phys.Port
	BtoA *phys.Port
	// PortA is the output port index on a (toward b); PortB on b (toward a).
	PortA int
	PortB int
}

// AttachTrunk joins two forwarding nodes with a full-duplex inter-switch
// link at rate and one-way propagation prop, framed by f (Ethernet between
// switches, POS between the WAN's routers); queueCap bounds each
// direction's drop-tail output queue. Port names carry the traversal
// direction (linkName/a>b, linkName/b>a by node name) for telemetry.
func AttachTrunk(eng *sim.Engine, a, b *Node, linkName string,
	rate units.Bandwidth, prop units.Time, queueCap units.ByteSize, f phys.Framing) Trunk {
	ab := phys.NewPort(eng, linkName+"/"+a.name+">"+b.name, rate, prop, f)
	ba := phys.NewPort(eng, linkName+"/"+b.name+">"+a.name, rate, prop, f)
	ab.SetDst(b.In())
	ba.SetDst(a.In())
	pa := a.AddPort(ab, queueCap)
	pb := b.AddPort(ba, queueCap)
	return Trunk{AtoB: ab, BtoA: ba, PortA: pa, PortB: pb}
}
