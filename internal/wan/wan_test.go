package wan

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/packet"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// compile builds the path on a fresh engine, its flow connected, with
// stock 9000-MTU hosts and window scaling on.
func compile(t *testing.T, c Config) *topo.Network {
	t.Helper()
	net, err := topo.Compile(sim.NewEngine(1), Spec(c, host.Stock(9000).WithWindowScale(64<<20)), 1)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestPayloadRate(t *testing.T) {
	// OC-48 with 9000-byte MTU delivers ~2.39 Gb/s of application payload.
	got := PayloadRate(9000).Gbps()
	if got < 2.37 || got > 2.41 {
		t.Errorf("PayloadRate(9000) = %.3f", got)
	}
	// With 1500-byte MTU the per-packet overhead costs more.
	if PayloadRate(1500) >= PayloadRate(9000) {
		t.Error("jumbo should deliver more payload over POS")
	}
}

func TestDefaultConfigRTT(t *testing.T) {
	cfg := DefaultConfig()
	rtt := cfg.RTT()
	if rtt < 178*units.Millisecond || rtt > 182*units.Millisecond {
		t.Errorf("RTT = %v, want ~180ms", rtt)
	}
	bdp := cfg.BDP(9000)
	if bdp < 50e6 || bdp > 58e6 {
		t.Errorf("BDP = %d, want ~54MB", bdp)
	}
	// The compiled path's propagation agrees with RTT: its five links plus
	// four router hops each way, less the 10 µs StarLight cross-connect,
	// which RTT leaves out.
	var oneWay units.Time
	for _, l := range compile(t, cfg).Links() {
		oneWay += l.Prop
	}
	oneWay += 4*cfg.RouterLatency - 10*units.Microsecond
	if 2*oneWay != rtt {
		t.Errorf("compiled path round trip %v, RTT %v", 2*oneWay, rtt)
	}
}

func TestPingAcrossPath(t *testing.T) {
	// A packet makes it Sunnyvale -> Geneva and the ack returns; the
	// handshake the compile runs validates the full route in both
	// directions.
	net := compile(t, DefaultConfig())
	sw, se := net.Pairs[0].Src, net.Pairs[0].Dst
	if sw.Conn.State() != tcp.StateEstablished || se.Conn.State() != tcp.StateEstablished {
		t.Fatalf("handshake across WAN failed: %v/%v", sw.Conn.State(), se.Conn.State())
	}
	// SRTT reflects the 180 ms path.
	if sw.Conn.SRTT() < 175*units.Millisecond || sw.Conn.SRTT() > 190*units.Millisecond {
		t.Errorf("SRTT = %v", sw.Conn.SRTT())
	}
}

func TestBottleneckQueueIsDropPoint(t *testing.T) {
	// Blast more than the OC-48 can carry; drops must appear at the
	// eastbound bottleneck port, not elsewhere.
	cfg := DefaultConfig()
	cfg.BottleneckQueue = 256 * units.KB
	net := compile(t, cfg)
	w, e := net.Host("sunnyvale"), net.Host("geneva")
	var sunk int64
	e.SetUDPSink(func(pk *packet.Packet) { sunk++ })
	w.Pktgen(0, 5000, 9000, e.Addr(), nil)
	net.Eng.RunUntil(net.Eng.Now() + 2*units.Second)
	if BottleneckDrops(net) == 0 {
		t.Error("no drops at the bottleneck despite 5.5 Gb/s into an OC-48")
	}
	west := -1
	for _, ps := range net.Switch("gva-7606").PortStats() {
		if ps.Link == "lhcnet-oc48/gva-7606>chi-7609" {
			west = int(ps.Drops)
		}
	}
	if west != 0 {
		t.Errorf("westbound OC-48 port drops = %d (-1: no such port), want 0 on the idle path", west)
	}
	if sunk == 0 {
		t.Error("nothing delivered")
	}
}
