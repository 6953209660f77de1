// Package wan builds the paper's §4 wide-area path: Sunnyvale to Geneva,
// 10,037 km, via a loaned Level3 OC-192 POS circuit from Sunnyvale to
// StarLight in Chicago (Cisco GSR 12406 → Juniper T640) and the
// transatlantic LHCnet OC-48 POS circuit from Chicago to Geneva (Cisco 7609
// → Cisco 7606), crossing AS75 (TeraGrid) and AS513 (CERN). The OC-48 is
// the bottleneck: ~2.39 Gb/s of deliverable payload after SONET and
// PPP/HDLC overhead, which is why the record run's 2.38 Gb/s is ~99%
// payload efficiency.
package wan

import (
	"tengig/internal/fabric"
	"tengig/internal/host"
	"tengig/internal/ipv4"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// SONET line rates.
const (
	OC48Rate  = units.Bandwidth(2_488_320_000)
	OC192Rate = units.Bandwidth(9_953_280_000)
)

// Config parameterizes the transatlantic path.
type Config struct {
	// SnvChiDelay and ChiGvaDelay are one-way propagation delays of the two
	// circuits. Defaults reproduce the paper's ~180 ms RTT over 10,037 km
	// of (circuitous) fiber.
	SnvChiDelay units.Time
	ChiGvaDelay units.Time
	// BottleneckQueue is the output buffer on the OC-48 line card — the
	// drop point when the sender overruns the path.
	BottleneckQueue units.ByteSize
	// RouterLatency is the per-hop forwarding latency.
	RouterLatency units.Time
	// HostLinkProp is the propagation delay of each end's 10GbE attachment.
	HostLinkProp units.Time
}

// DefaultConfig returns the record-run path parameters.
func DefaultConfig() Config {
	return Config{
		SnvChiDelay:     24 * units.Millisecond,
		ChiGvaDelay:     65800 * units.Microsecond,
		BottleneckQueue: 32 * units.MB,
		RouterLatency:   20 * units.Microsecond,
		HostLinkProp:    5 * units.Microsecond,
	}
}

// Path is the constructed WAN.
type Path struct {
	// The four routers, west to east.
	SnvGSR, ChiT640, Chi7609, Gva7606 *fabric.Node
	// BottleneckEast is the Chi7609 port feeding the OC-48 toward Geneva
	// (where eastbound data packets queue and drop); BottleneckWest is the
	// Gva7606 port toward Chicago (the ack path, never congested here).
	BottleneckEast *fabric.Port
	BottleneckWest *fabric.Port

	cfg Config
}

// OneWayDelay returns the path's propagation-only one-way delay.
func (p *Path) OneWayDelay() units.Time {
	return p.cfg.SnvChiDelay + p.cfg.ChiGvaDelay + 2*p.cfg.HostLinkProp + 4*p.cfg.RouterLatency
}

// RTT returns the propagation round-trip time.
func (p *Path) RTT() units.Time { return 2 * p.OneWayDelay() }

// PayloadRate returns the application-visible ceiling of the bottleneck
// OC-48 for the given MTU: SONET envelope, PPP/HDLC framing, and TCP/IP
// header overhead.
func PayloadRate(mtu int) units.Bandwidth {
	envelope := float64(OC48Rate) * phys.SPEDerate
	perPkt := float64(mtu-40) / float64(mtu+9)
	return units.Bandwidth(envelope * perPkt)
}

// BDP returns the path's bandwidth-delay product at the bottleneck payload
// rate — the socket-buffer size the paper's tuning targets.
func (p *Path) BDP(mtu int) int {
	return int(float64(PayloadRate(mtu)) / 8 * p.RTT().Seconds())
}

// Build wires west (Sunnyvale) and east (Geneva) hosts across the path.
// The hosts must already have their NICs installed; nicW/nicE select them.
func Build(eng *sim.Engine, west, east *host.Host, nicW, nicE int, cfg Config) *Path {
	p := &Path{
		SnvGSR:  fabric.NewNode(eng, "snv-gsr12406", cfg.RouterLatency, 0),
		ChiT640: fabric.NewNode(eng, "chi-t640", cfg.RouterLatency, 0),
		Chi7609: fabric.NewNode(eng, "chi-7609", cfg.RouterLatency, 0),
		Gva7606: fabric.NewNode(eng, "gva-7606", cfg.RouterLatency, 0),
		cfg:     cfg,
	}

	// Host attachments (10GbE Ethernet).
	wAtt := fabric.AttachDevice(eng, p.SnvGSR, west.NIC(nicW).Adapter, "snv-host",
		10*units.GbitPerSecond, cfg.HostLinkProp, 16*units.MB)
	west.NIC(nicW).Adapter.AttachPort(wAtt.ToSwitch)
	eAtt := fabric.AttachDevice(eng, p.Gva7606, east.NIC(nicE).Adapter, "gva-host",
		10*units.GbitPerSecond, cfg.HostLinkProp, 16*units.MB)
	east.NIC(nicE).Adapter.AttachPort(eAtt.ToSwitch)

	// Sunnyvale <-> Chicago: OC-192 POS.
	oc192 := phys.NewLink(eng, "level3-oc192", OC192Rate, cfg.SnvChiDelay, phys.POSFraming{})
	oc192.AtoB.SetDst(p.ChiT640.In())
	oc192.BtoA.SetDst(p.SnvGSR.In())
	snvToChi := p.SnvGSR.AddPort(oc192.AtoB, 64*units.MB)
	chiToSnv := p.ChiT640.AddPort(oc192.BtoA, 64*units.MB)

	// Chicago T640 <-> 7609: short intra-PoP 10GbE.
	pop := phys.NewLink(eng, "starlight-xover", 10*units.GbitPerSecond,
		10*units.Microsecond, phys.EthernetFraming{})
	pop.AtoB.SetDst(p.Chi7609.In())
	pop.BtoA.SetDst(p.ChiT640.In())
	t640To7609 := p.ChiT640.AddPort(pop.AtoB, 64*units.MB)
	r7609ToT640 := p.Chi7609.AddPort(pop.BtoA, 64*units.MB)

	// Chicago <-> Geneva: the transatlantic OC-48 POS (bottleneck).
	oc48 := phys.NewLink(eng, "lhcnet-oc48", OC48Rate, cfg.ChiGvaDelay, phys.POSFraming{})
	oc48.AtoB.SetDst(p.Gva7606.In())
	oc48.BtoA.SetDst(p.Chi7609.In())
	chiToGva := p.Chi7609.AddPort(oc48.AtoB, cfg.BottleneckQueue)
	gvaToChi := p.Gva7606.AddPort(oc48.BtoA, cfg.BottleneckQueue)
	p.BottleneckEast = p.Chi7609.Port(chiToGva)
	p.BottleneckWest = p.Gva7606.Port(gvaToChi)

	// Routes: eastbound toward the Geneva host, westbound toward Sunnyvale.
	// The port indices are all freshly returned by AddPort/AttachDevice, so a
	// route failure here is a programming error, not bad input.
	mustRoute(p.SnvGSR, east.Addr(), snvToChi)
	mustRoute(p.ChiT640, east.Addr(), t640To7609)
	mustRoute(p.Chi7609, east.Addr(), chiToGva)
	mustRoute(p.Gva7606, east.Addr(), eAtt.PortIdx)
	mustRoute(p.Gva7606, west.Addr(), gvaToChi)
	mustRoute(p.Chi7609, west.Addr(), r7609ToT640)
	mustRoute(p.ChiT640, west.Addr(), chiToSnv)
	mustRoute(p.SnvGSR, west.Addr(), wAtt.PortIdx)

	return p
}

func mustRoute(n *fabric.Node, dst ipv4.Addr, port int) {
	if err := n.Route(dst, port); err != nil {
		panic(err.Error())
	}
}
