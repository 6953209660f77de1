package fabric

import (
	"strings"
	"testing"

	"tengig/internal/ipv4"
	"tengig/internal/packet"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/units"
)

type collector struct {
	eng *sim.Engine
	got []*packet.Packet
	at  []units.Time
}

func (c *collector) Receive(p *packet.Packet) {
	c.got = append(c.got, p)
	c.at = append(c.at, c.eng.Now())
}

func mustRoute(t *testing.T, n *Node, dst ipv4.Addr, port int) {
	t.Helper()
	if err := n.Route(dst, port); err != nil {
		t.Fatalf("route: %v", err)
	}
}

// star builds a node with n collector devices attached by 10GbE links and
// routes HostN(i+1) to device i.
func star(t *testing.T, eng *sim.Engine, n int) (*Node, []*collector, []Attachment) {
	sw := FastIron(eng, "fastiron")
	devs := make([]*collector, n)
	atts := make([]Attachment, n)
	for i := 0; i < n; i++ {
		devs[i] = &collector{eng: eng}
		atts[i] = AttachDevice(eng, sw, devs[i], "link", 10*units.GbitPerSecond,
			50*units.Nanosecond, units.MB)
		mustRoute(t, sw, ipv4.HostN(i+1), atts[i].PortIdx)
	}
	return sw, devs, atts
}

func pkt(dstHost int, ipLen int) *packet.Packet {
	return &packet.Packet{Dst: ipv4.HostN(dstHost), Payload: ipLen - 40, L4Header: 20}
}

func TestForwarding(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, devs, atts := star(t, eng, 3)
	// Device 0 sends to hosts 2 and 3.
	atts[0].ToSwitch.Send(pkt(2, 1500))
	atts[0].ToSwitch.Send(pkt(3, 1500))
	eng.Run()
	if len(devs[1].got) != 1 || len(devs[2].got) != 1 {
		t.Fatalf("forwarding failed: %d/%d", len(devs[1].got), len(devs[2].got))
	}
	if sw.Stats.Forwarded != 2 {
		t.Errorf("forwarded = %d", sw.Stats.Forwarded)
	}
	if devs[1].got[0].Hops != 1 {
		t.Errorf("hops = %d", devs[1].got[0].Hops)
	}
}

func TestNoRouteDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, _, atts := star(t, eng, 2)
	atts[0].ToSwitch.Send(pkt(99, 1500))
	eng.Run()
	if sw.Stats.NoRoute != 1 {
		t.Errorf("NoRoute = %d", sw.Stats.NoRoute)
	}
}

func TestRouteInvalidPortErrors(t *testing.T) {
	eng := sim.NewEngine(1)
	sw, _, _ := star(t, eng, 2)
	for _, port := range []int{-1, 2, 99} {
		err := sw.Route(ipv4.HostN(1), port)
		if err == nil {
			t.Fatalf("route to port %d accepted", port)
		}
		if !strings.Contains(err.Error(), "invalid port") {
			t.Errorf("route error %q lacks diagnostic", err)
		}
	}
	// A failed route must not install a FIB entry.
	if got := sw.RouteCount(); got != 2 {
		t.Errorf("RouteCount = %d after failed routes, want 2", got)
	}
}

func TestSwitchAddsLatency(t *testing.T) {
	// The paper's delta: back-to-back 19 us vs 25 us through the FastIron —
	// the switch contributes ~6 us per traversal.
	eng := sim.NewEngine(1)
	_, devs, atts := star(t, eng, 2)
	start := eng.Now()
	atts[0].ToSwitch.Send(pkt(2, 100))
	eng.Run()
	elapsed := devs[1].at[0] - start
	// Two link serializations + props + fabric latency: dominated by the
	// ~5.8 us forwarding latency.
	if elapsed < 5800*units.Nanosecond || elapsed > 8*units.Microsecond {
		t.Errorf("switch traversal = %v, want ~6us", elapsed)
	}
}

func TestOutputQueueDropTail(t *testing.T) {
	// Two senders blast a single output port at 2:1 overload with a tiny
	// queue: drops must occur and be counted.
	eng := sim.NewEngine(1)
	sw := NewNode(eng, "sw", units.Microsecond, 0)
	dst := &collector{eng: eng}
	att := AttachDevice(eng, sw, dst, "out", units.GbitPerSecond, 0, 16*units.KB)
	mustRoute(t, sw, ipv4.HostN(1), att.PortIdx)
	for i := 0; i < 100; i++ {
		sw.In().Receive(pkt(1, 9000))
	}
	eng.Run()
	if sw.Stats.Dropped == 0 {
		t.Fatal("no drops despite overload")
	}
	if int64(len(dst.got))+sw.Stats.Dropped != 100 {
		t.Errorf("conservation: %d delivered + %d dropped != 100", len(dst.got), sw.Stats.Dropped)
	}
	ps := sw.Port(att.PortIdx).Stats()
	if ps.Drops != sw.Stats.Dropped {
		t.Error("per-port drop count mismatch")
	}
	if ps.Forwarded != int64(len(dst.got)) {
		t.Errorf("port forwarded = %d, delivered %d", ps.Forwarded, len(dst.got))
	}
	if ps.Bytes != ps.Forwarded*9000 {
		t.Errorf("port bytes = %d, want %d", ps.Bytes, ps.Forwarded*9000)
	}
	if ps.MaxQueued == 0 || ps.MaxQueued > 16*1024+9000 {
		t.Errorf("port max_queued = %d, want within one packet of the cap", ps.MaxQueued)
	}
}

func TestEmptyQueueAcceptsOversizedPacket(t *testing.T) {
	// Regression: the drop-tail check used to reject any packet larger than
	// the queue cap even into an empty queue, so a 9000-byte jumbo frame —
	// the paper's central MTU knob — could never traverse a port capped
	// below ~9 KB. Standard qdisc behavior: an empty queue accepts one
	// packet regardless of size.
	eng := sim.NewEngine(1)
	sw := NewNode(eng, "sw", units.Microsecond, 0)
	dst := &collector{eng: eng}
	att := AttachDevice(eng, sw, dst, "out", 10*units.GbitPerSecond, 0, 4*units.KB)
	mustRoute(t, sw, ipv4.HostN(1), att.PortIdx)
	sw.In().Receive(pkt(1, 9000))
	eng.Run()
	if len(dst.got) != 1 {
		t.Fatalf("jumbo frame through a 4KB-capped empty queue: delivered %d, want 1", len(dst.got))
	}
	if sw.Stats.Dropped != 0 {
		t.Errorf("dropped = %d", sw.Stats.Dropped)
	}
	if got := sw.Port(att.PortIdx).Queued(); got != 0 {
		t.Errorf("queue did not drain: %d bytes", got)
	}

	// A busy queue still drop-tails oversized arrivals: blast enough jumbos
	// that the 4 KB cap (holding one in-flight packet) rejects the rest.
	for i := 0; i < 10; i++ {
		sw.In().Receive(pkt(1, 9000))
	}
	eng.Run()
	if sw.Stats.Dropped == 0 {
		t.Error("no drops despite overload of a tiny queue")
	}
	if int64(len(dst.got))+sw.Stats.Dropped != 11 {
		t.Errorf("conservation: %d delivered + %d dropped != 11", len(dst.got), sw.Stats.Dropped)
	}
}

func TestQueueDrains(t *testing.T) {
	eng := sim.NewEngine(1)
	sw := NewNode(eng, "sw", 0, 0)
	dst := &collector{eng: eng}
	att := AttachDevice(eng, sw, dst, "out", units.GbitPerSecond, 0, units.MB)
	mustRoute(t, sw, ipv4.HostN(1), att.PortIdx)
	for i := 0; i < 10; i++ {
		sw.In().Receive(pkt(1, 9000))
	}
	eng.Run()
	if got := sw.Port(att.PortIdx).Queued(); got != 0 {
		t.Errorf("queue did not drain: %d bytes", got)
	}
	if len(dst.got) != 10 {
		t.Errorf("delivered %d", len(dst.got))
	}
}

func TestAggregationPreservesOrderPerSource(t *testing.T) {
	// Multiple GbE sources into one 10GbE sink (the paper's multi-flow
	// topology): per-source FIFO order must hold.
	eng := sim.NewEngine(1)
	sw := FastIron(eng, "fastiron")
	sink := &collector{eng: eng}
	sinkAtt := AttachDevice(eng, sw, sink, "sink", 10*units.GbitPerSecond, 0, 4*units.MB)
	mustRoute(t, sw, ipv4.HostN(1), sinkAtt.PortIdx)
	var srcs []Attachment
	for i := 0; i < 4; i++ {
		src := AttachDevice(eng, sw, &collector{eng: eng}, "src", units.GbitPerSecond, 0, units.MB)
		srcs = append(srcs, src)
	}
	for round := 0; round < 20; round++ {
		for s, att := range srcs {
			pk := pkt(1, 1500)
			pk.FlowID = uint32(s)
			pk.ID = uint64(round)
			att.ToSwitch.Send(pk)
		}
	}
	eng.Run()
	if len(sink.got) != 80 {
		t.Fatalf("delivered %d of 80", len(sink.got))
	}
	last := map[uint32]uint64{}
	for _, pk := range sink.got {
		if prev, ok := last[pk.FlowID]; ok && pk.ID <= prev {
			t.Fatalf("flow %d reordered: %d after %d", pk.FlowID, pk.ID, prev)
		}
		last[pk.FlowID] = pk.ID
	}
}

func TestBackplaneBoundsAggregate(t *testing.T) {
	// A node with a small backplane cannot exceed it regardless of port
	// speeds.
	eng := sim.NewEngine(1)
	sw := NewNode(eng, "sw", 0, 2*units.GbitPerSecond)
	dst := &collector{eng: eng}
	att := AttachDevice(eng, sw, dst, "out", 10*units.GbitPerSecond, 0, 64*units.MB)
	mustRoute(t, sw, ipv4.HostN(1), att.PortIdx)
	const n = 1000
	for i := 0; i < n; i++ {
		sw.In().Receive(pkt(1, 9000))
	}
	eng.Run()
	rate := units.Throughput(int64(n)*9000, eng.Now())
	if rate > 2*units.GbitPerSecond {
		t.Errorf("aggregate %v exceeds 2 Gb/s backplane", rate)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative latency accepted")
			}
		}()
		NewNode(eng, "bad", -1, 0)
	}()
	sw := NewNode(eng, "sw", 0, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive hop limit accepted")
			}
		}()
		sw.SetHopLimit(0)
	}()
}

func TestDirectionalLinkNames(t *testing.T) {
	// Each direction of a full-duplex attachment carries its own name so
	// per-direction trace/telemetry output is attributable.
	eng := sim.NewEngine(1)
	sw := FastIron(eng, "fastiron")
	att := AttachDevice(eng, sw, &collector{eng: eng}, "h0-sw",
		10*units.GbitPerSecond, 0, units.MB)
	if got := att.ToSwitch.Name(); got != "h0-sw/up" {
		t.Errorf("ToSwitch name = %q, want h0-sw/up", got)
	}
	if got := att.ToDevice.Name(); got != "h0-sw/down" {
		t.Errorf("ToDevice name = %q, want h0-sw/down", got)
	}
	sw2 := FastIron(eng, "agg")
	tr := AttachTrunk(eng, sw, sw2, "t0", 10*units.GbitPerSecond, 0, units.MB, phys.EthernetFraming{})
	if got := tr.AtoB.Name(); got != "t0/fastiron>agg" {
		t.Errorf("trunk AtoB name = %q", got)
	}
	if got := tr.BtoA.Name(); got != "t0/agg>fastiron" {
		t.Errorf("trunk BtoA name = %q", got)
	}
}

// twoSwitch wires dev0 — sw0 — trunk — sw1 — dev1 and routes HostN(1) to
// dev0, HostN(2) to dev1 from both switches. Returns the two switches,
// device 0's transmit attachment, and device 1's collector.
func twoSwitch(t *testing.T, eng *sim.Engine) (*Node, *Node, Attachment, *collector) {
	sw0 := FastIron(eng, "edge0")
	sw1 := FastIron(eng, "edge1")
	d0 := &collector{eng: eng}
	d1 := &collector{eng: eng}
	a0 := AttachDevice(eng, sw0, d0, "d0", 10*units.GbitPerSecond, 50*units.Nanosecond, units.MB)
	a1 := AttachDevice(eng, sw1, d1, "d1", 10*units.GbitPerSecond, 50*units.Nanosecond, units.MB)
	tr := AttachTrunk(eng, sw0, sw1, "trunk", 10*units.GbitPerSecond, 100*units.Nanosecond, 4*units.MB, phys.EthernetFraming{})
	mustRoute(t, sw0, ipv4.HostN(1), a0.PortIdx)
	mustRoute(t, sw0, ipv4.HostN(2), tr.PortA)
	mustRoute(t, sw1, ipv4.HostN(2), a1.PortIdx)
	mustRoute(t, sw1, ipv4.HostN(1), tr.PortB)
	_ = a1
	return sw0, sw1, a0, d1
}

func TestMultiHopForwarding(t *testing.T) {
	eng := sim.NewEngine(1)
	sw0, sw1, a0, d1 := twoSwitch(t, eng)
	a0.ToSwitch.Send(pkt(2, 1500))
	eng.Run()
	if len(d1.got) != 1 {
		t.Fatalf("multi-hop delivery failed: %d", len(d1.got))
	}
	if got := d1.got[0].Hops; got != 2 {
		t.Errorf("hops = %d across two switches, want 2", got)
	}
	if sw0.Stats.Forwarded != 1 || sw1.Stats.Forwarded != 1 {
		t.Errorf("forwarded = %d/%d", sw0.Stats.Forwarded, sw1.Stats.Forwarded)
	}
	// Trunk port counters attribute the inter-switch traffic.
	found := false
	for _, ps := range sw0.PortStats() {
		if ps.Link == "trunk/edge0>edge1" && ps.Forwarded == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("trunk port stats missing: %+v", sw0.PortStats())
	}
}

func TestHopLimitDropsLoopedPacket(t *testing.T) {
	// Two switches routing a destination at each other: the hop cap must
	// turn the loop into a counted TTL drop, and the packet must go back to
	// its pool (audit-clean).
	eng := sim.NewEngine(1)
	sw0 := NewNode(eng, "a", 100*units.Nanosecond, 0)
	sw1 := NewNode(eng, "b", 100*units.Nanosecond, 0)
	tr := AttachTrunk(eng, sw0, sw1, "loop", 10*units.GbitPerSecond, 0, units.MB, phys.EthernetFraming{})
	mustRoute(t, sw0, ipv4.HostN(9), tr.PortA)
	mustRoute(t, sw1, ipv4.HostN(9), tr.PortB)
	sw0.SetHopLimit(8)
	sw1.SetHopLimit(8)

	pool := packet.NewPool()
	pk := pool.Get()
	pk.Dst = ipv4.HostN(9)
	pk.Payload = 1460
	pk.L4Header = 20
	sw0.In().Receive(pk)
	eng.Run()

	if got := sw0.Stats.TTLDrops + sw1.Stats.TTLDrops; got != 1 {
		t.Fatalf("TTL drops = %d, want exactly 1", got)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("pool leak: %d packets outstanding after TTL drop", pool.Outstanding())
	}
	total := sw0.Stats.Forwarded + sw1.Stats.Forwarded
	if total != 8 {
		t.Errorf("forwarded %d hops before the cap, want 8", total)
	}
}

func TestNoRouteAndDropTailReleaseToPool(t *testing.T) {
	// Overload a tiny queue and send unroutable traffic from a pool: every
	// loss path must release the packet, leaving the pool balanced.
	eng := sim.NewEngine(1)
	sw := NewNode(eng, "sw", units.Microsecond, 0)
	dst := &collector{eng: eng}
	att := AttachDevice(eng, sw, dst, "out", units.GbitPerSecond, 0, 16*units.KB)
	mustRoute(t, sw, ipv4.HostN(1), att.PortIdx)

	pool := packet.NewPool()
	const n = 50
	for i := 0; i < n; i++ {
		pk := pool.Get()
		pk.Dst = ipv4.HostN(1)
		pk.Payload = 8960
		pk.L4Header = 20
		sw.In().Receive(pk)
		// Every fifth packet is unroutable.
		if i%5 == 0 {
			bad := pool.Get()
			bad.Dst = ipv4.HostN(42)
			bad.Payload = 1460
			bad.L4Header = 20
			sw.In().Receive(bad)
		}
	}
	// Delivered packets are consumed by the collector, not a host: release
	// them as a receiver would.
	eng.Run()
	for _, pk := range dst.got {
		pk.Release()
	}
	if sw.Stats.Dropped == 0 || sw.Stats.NoRoute == 0 {
		t.Fatalf("expected both loss kinds: dropped=%d noroute=%d",
			sw.Stats.Dropped, sw.Stats.NoRoute)
	}
	if sw.Stats.NoRoute != 10 {
		t.Errorf("NoRoute = %d, want 10", sw.Stats.NoRoute)
	}
	if int64(len(dst.got))+sw.Stats.Dropped != n {
		t.Errorf("conservation: %d delivered + %d dropped != %d",
			len(dst.got), sw.Stats.Dropped, n)
	}
	if pool.Outstanding() != 0 {
		t.Errorf("pool leak: %d outstanding (gets %d, puts %d)",
			pool.Outstanding(), pool.Gets(), pool.Puts())
	}
}
