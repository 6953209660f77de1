// Package wan describes the paper's §4 wide-area path: Sunnyvale to Geneva,
// 10,037 km, via a loaned Level3 OC-192 POS circuit from Sunnyvale to
// StarLight in Chicago (Cisco GSR 12406 → Juniper T640) and the
// transatlantic LHCnet OC-48 POS circuit from Chicago to Geneva (Cisco 7609
// → Cisco 7606), crossing AS75 (TeraGrid) and AS513 (CERN). The OC-48 is
// the bottleneck: ~2.39 Gb/s of deliverable payload after SONET and
// PPP/HDLC overhead, which is why the record run's 2.38 Gb/s is ~99%
// payload efficiency. Spec states the path as a topology for topo.Compile.
package wan

import (
	"tengig/internal/host"
	"tengig/internal/phys"
	"tengig/internal/topo"
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
	// drop point when the sender overruns the path. 0 is unlimited.
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

// RTT returns the path's propagation round-trip time: both circuits, both
// host links and four router hops each way (the 10 µs StarLight
// cross-connect aside).
func (c Config) RTT() units.Time {
	return 2 * (c.SnvChiDelay + c.ChiGvaDelay + 2*c.HostLinkProp + 4*c.RouterLatency)
}

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
func (c Config) BDP(mtu int) int {
	return int(float64(PayloadRate(mtu)) / 8 * c.RTT().Seconds())
}

// Spec returns the path as a topology: WANXeon hosts sunnyvale and geneva,
// both tuned t, on 10GbE links with 16 MB queues to the four routers (west
// to east snv-gsr12406, chi-t640, chi-7609, gva-7606), joined by the
// level3-oc192 POS circuit, StarLight's 10 µs starlight-xover, and the
// lhcnet-oc48 POS circuit, whose BottleneckQueue on chi-7609 is where
// eastbound data queues and drops. The inter-router links queue 64 MB. One
// flow runs from sunnyvale to geneva.
func Spec(c Config, t host.Tuning) *topo.Spec {
	ns := func(d units.Time) float64 { return float64(d) / float64(units.Nanosecond) }
	gbps := func(r units.Bandwidth) float64 { return float64(r) / float64(units.GbitPerSecond) }
	router := func(name string) topo.SwitchSpec {
		return topo.SwitchSpec{Name: name, LatencyNS: ns(c.RouterLatency)}
	}
	endHost := func(name string) topo.HostSpec {
		return topo.HostSpec{Name: name, Profile: string(host.WANXeon)}
	}
	const trunkKB = 64 << 10
	return &topo.Spec{
		Name:     "sunnyvale-geneva",
		Tuning:   topo.TuningOf(t),
		Hosts:    []topo.HostSpec{endHost("sunnyvale"), endHost("geneva")},
		Switches: []topo.SwitchSpec{router("snv-gsr12406"), router("chi-t640"), router("chi-7609"), router("gva-7606")},
		Links: []topo.LinkSpec{
			{Name: "snv-host", A: "sunnyvale", B: "snv-gsr12406", PropNS: ns(c.HostLinkProp), QueueKB: 16 << 10},
			{Name: "gva-host", A: "geneva", B: "gva-7606", PropNS: ns(c.HostLinkProp), QueueKB: 16 << 10},
			{Name: "level3-oc192", A: "snv-gsr12406", B: "chi-t640", RateGbps: gbps(OC192Rate),
				PropNS: ns(c.SnvChiDelay), QueueKB: trunkKB, Framing: topo.FramingPOS},
			{Name: "starlight-xover", A: "chi-t640", B: "chi-7609", PropNS: 10_000, QueueKB: trunkKB},
			{Name: "lhcnet-oc48", A: "chi-7609", B: "gva-7606", RateGbps: gbps(OC48Rate),
				PropNS: ns(c.ChiGvaDelay), QueueKB: queueKB(c.BottleneckQueue), Framing: topo.FramingPOS},
		},
		Flows: []topo.FlowSpec{{Src: "sunnyvale", Dst: "geneva"}},
	}
}

// BottleneckDrops returns the packets a compiled Spec dropped at chi-7609's
// queue onto the OC-48, where eastbound data overruns the path.
func BottleneckDrops(n *topo.Network) int64 {
	for _, ps := range n.Switch("chi-7609").PortStats() {
		if ps.Link == "lhcnet-oc48/chi-7609>gva-7606" {
			return ps.Drops
		}
	}
	return 0
}

// queueKB converts a queue bound to a spec's queue_kb, rounding up to whole
// KB: 0 bytes is unlimited (-1), and a negative bound stays below -1, so
// topo.Validate rejects it.
func queueKB(b units.ByteSize) int {
	switch {
	case b == 0:
		return -1
	case b < 0:
		return min(int(b/units.KB), -2)
	}
	return int((b + units.KB - 1) / units.KB)
}
