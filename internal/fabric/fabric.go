// Package fabric provides the store-and-forward elements between hosts: the
// Foundry FastIron 1500 class Ethernet switch of the paper's LAN/SAN tests
// and the POS routers of its WAN path. Both are instances of Node — a
// forwarding element with a shared backplane, fixed forwarding latency,
// per-destination routing, and drop-tail output queues (the WAN bottleneck's
// loss point). Nodes compose into multi-switch fabrics: AttachTrunk joins
// two nodes with an inter-switch link, packets hop across as many nodes as
// the routes dictate, and a hop limit (IP TTL analogue) bounds the damage a
// routing loop can do.
package fabric

import (
	"fmt"

	"tengig/internal/ipv4"
	"tengig/internal/packet"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// DefaultHopLimit is the store-and-forward hop budget a packet gets unless
// the node is configured otherwise: generous for any sane fabric (the
// largest shipped scenario crosses three switches) yet small enough that a
// routing loop degenerates into counted drops instead of an event storm.
const DefaultHopLimit = 16

// Stats counts forwarding events.
type Stats struct {
	Forwarded int64
	Dropped   int64 // output-queue overflows
	NoRoute   int64
	TTLDrops  int64 // hop-limit expirations (routing loops, miswired fabrics)
}

// PortStats is a snapshot of one output port's forwarding counters, keyed by
// the direction-qualified link name so multi-switch telemetry stays
// attributable.
type PortStats struct {
	Link      string `json:"link"`
	Forwarded int64  `json:"forwarded"`
	Bytes     int64  `json:"bytes"` // IP bytes forwarded through the queue
	Drops     int64  `json:"drops"`
	MaxQueued int64  `json:"max_queued"` // queue-depth high-water mark, bytes
}

// Node is a store-and-forward switch or router.
type Node struct {
	eng       *sim.Engine
	name      string
	latency   units.Time
	backplane *sim.Pipe // nil = unconstrained
	ports     []*Port
	fib       map[ipv4.Addr]int
	hopLimit  int

	// Stats is the node's counter block.
	Stats Stats
}

// Port is one output port of a Node.
type Port struct {
	node      *Node
	idx       int
	out       *phys.Port
	queueCap  int64 // bytes; 0 = unlimited
	queued    int64 // bytes currently queued or serializing
	maxQueued int64
	drops     int64
	fwdPkts   int64
	fwdBytes  int64

	// Bound-once callbacks and the FIFO of pending queue releases, so the
	// forwarding path schedules no closures and boxes no sizes.
	stepCb    func(any) // backplane crossed → forwarding latency
	deliverCb func(any) // latency elapsed → drop-tail enqueue
	drainCb   func(any) // serialization done → release queued bytes
	drainq    []int64   // sizes awaiting release, FIFO from drainHead
	drainHead int
}

// Queued returns the bytes currently held by the port.
func (p *Port) Queued() int64 { return p.queued }

// Out returns the underlying transmit port.
func (p *Port) Out() *phys.Port { return p.out }

// Stats snapshots the port's forwarding counters.
func (p *Port) Stats() PortStats {
	return PortStats{
		Link:      p.out.Name(),
		Forwarded: p.fwdPkts,
		Bytes:     p.fwdBytes,
		Drops:     p.drops,
		MaxQueued: p.maxQueued,
	}
}

// NewNode builds a forwarding element. latency is the fixed store-and-
// forward fabric latency per packet; backplane (0 = unlimited) bounds
// aggregate forwarding bandwidth.
func NewNode(eng *sim.Engine, name string, latency units.Time, backplane units.Bandwidth) *Node {
	if latency < 0 {
		panic("fabric: negative latency")
	}
	n := &Node{eng: eng, name: name, latency: latency,
		fib: make(map[ipv4.Addr]int), hopLimit: DefaultHopLimit}
	if backplane > 0 {
		n.backplane = sim.NewPipe(eng, name+"/backplane", backplane)
	}
	return n
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// HopLimit returns the node's hop budget for transiting packets.
func (n *Node) HopLimit() int { return n.hopLimit }

// SetHopLimit overrides the hop budget. Packets arriving with Hops >= limit
// are dropped (counted in Stats.TTLDrops) instead of forwarded.
func (n *Node) SetHopLimit(limit int) {
	if limit <= 0 {
		panic("fabric: non-positive hop limit")
	}
	n.hopLimit = limit
}

// AddPort installs an output port transmitting through out, with a
// drop-tail queue of queueCap bytes (0 = unlimited). Returns the port
// index.
func (n *Node) AddPort(out *phys.Port, queueCap units.ByteSize) int {
	if queueCap < 0 {
		panic("fabric: negative queue capacity")
	}
	idx := len(n.ports)
	p := &Port{node: n, idx: idx, out: out, queueCap: int64(queueCap)}
	p.deliverCb = func(x any) { n.enqueue(p, x.(*packet.Packet)) }
	p.stepCb = func(x any) { n.eng.AfterCall(n.latency, p.deliverCb, x) }
	// Serialization finishes in enqueue order (the wire is FIFO), so releases
	// consume pending sizes strictly from the head.
	p.drainCb = func(any) {
		p.queued -= p.drainq[p.drainHead]
		p.drainHead++
		if p.drainHead == len(p.drainq) {
			p.drainq = p.drainq[:0]
			p.drainHead = 0
		}
	}
	n.ports = append(n.ports, p)
	return idx
}

// Port returns port i.
func (n *Node) Port(i int) *Port { return n.ports[i] }

// PortStats snapshots every port's counters in port-index order.
func (n *Node) PortStats() []PortStats {
	out := make([]PortStats, len(n.ports))
	for i, p := range n.ports {
		out[i] = p.Stats()
	}
	return out
}

// Route directs traffic for dst out of port i. An out-of-range port is a
// configuration error (a topology file with a bad route), reported rather
// than panicked so callers can diagnose the file.
func (n *Node) Route(dst ipv4.Addr, port int) error {
	if port < 0 || port >= len(n.ports) {
		return fmt.Errorf("fabric %s: route %v to invalid port %d (node has %d ports)",
			n.name, dst, port, len(n.ports))
	}
	n.fib[dst] = port
	return nil
}

// RouteCount returns the number of FIB entries installed.
func (n *Node) RouteCount() int { return len(n.fib) }

// In returns the receiver for traffic arriving at the node (all input
// ports share the forwarding path; input contention is modeled by the
// backplane).
func (n *Node) In() phys.Receiver { return nodeIn{n} }

type nodeIn struct{ n *Node }

func (in nodeIn) Receive(pk *packet.Packet) { in.n.forward(pk) }

// forward looks up the output port and moves the packet across the
// backplane, through the forwarding latency, into the output queue.
func (n *Node) forward(pk *packet.Packet) {
	if pk.Hops >= n.hopLimit {
		n.Stats.TTLDrops++
		pk.Release()
		return
	}
	pidx, ok := n.fib[pk.Dst]
	if !ok {
		n.Stats.NoRoute++
		pk.Release()
		return
	}
	pk.Hops++
	p := n.ports[pidx]
	if n.backplane != nil {
		n.backplane.SendCall(pk.IPLen(), p.stepCb, pk)
	} else {
		n.eng.AfterCall(n.latency, p.deliverCb, pk)
	}
}

// enqueue applies drop-tail queueing at the output port. As in every real
// qdisc, an empty queue accepts one packet regardless of its size relative
// to the cap — otherwise a port capped below one MTU could never carry a
// jumbo frame at all.
func (n *Node) enqueue(p *Port, pk *packet.Packet) {
	size := int64(pk.IPLen())
	if p.queueCap > 0 && p.queued > 0 && p.queued+size > p.queueCap {
		p.drops++
		n.Stats.Dropped++
		pk.Release()
		return
	}
	p.queued += size
	if p.queued > p.maxQueued {
		p.maxQueued = p.queued
	}
	p.fwdPkts++
	p.fwdBytes += size
	n.Stats.Forwarded++
	p.out.Send(pk)
	// The queue drains when the port finishes serializing this packet;
	// Busy() reflects the backlog, so schedule the release at that point.
	p.drainq = append(p.drainq, size)
	n.eng.AfterCall(p.out.Busy(), p.drainCb, nil)
}
