package wan

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/ipv4"
	"tengig/internal/mem"
	"tengig/internal/nic"
	"tengig/internal/packet"
	"tengig/internal/pci"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/units"
)

func testHost(eng *sim.Engine, name string, n int) *host.Host {
	h := host.New(eng, host.Config{
		Name: name,
		Addr: ipv4.HostN(n),
		CPUs: 2,
		Kernel: host.KernelConfig{
			Uniprocessor: true,
			Timestamps:   true,
			TxQueueLen:   10000,
		},
		Costs: host.CostConfig{
			Syscall:       600 * units.Nanosecond,
			TCPTxSegment:  1500 * units.Nanosecond,
			TCPRxSegment:  1500 * units.Nanosecond,
			AckRx:         500 * units.Nanosecond,
			AckTx:         500 * units.Nanosecond,
			IRQEntry:      1000 * units.Nanosecond,
			IRQPerPacket:  700 * units.Nanosecond,
			NAPIPerPacket: 400 * units.Nanosecond,
			Timestamp:     150 * units.Nanosecond,
			AllocBase:     100 * units.Nanosecond,
			AllocPerOrder: 800 * units.Nanosecond,
			ReadWakeup:    1000 * units.Nanosecond,
			SMPFactor:     1.4,
			SMPBounce:     1000 * units.Nanosecond,
			ChecksumBW:    units.FromGbps(10),
		},
		Mem: mem.Config{
			BusBW:         units.FromGbps(14),
			CPUCopyBW:     units.FromGbps(6.5),
			StreamBW:      units.FromGbps(9),
			DMAReadSetup:  700 * units.Nanosecond,
			DMAReadBW:     units.FromGbps(6.9),
			DMAWriteSetup: 200 * units.Nanosecond,
			DMAWriteBW:    units.FromGbps(7.5),
		},
		PCI: pci.PCIX133(pci.MMRBCMax),
	})
	h.AddNIC(nic.TenGbE(9000))
	return h
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
	p := buildTestPath(t)
	rtt := p.RTT()
	if rtt < 178*units.Millisecond || rtt > 182*units.Millisecond {
		t.Errorf("RTT = %v, want ~180ms", rtt)
	}
	bdp := p.BDP(9000)
	if bdp < 50e6 || bdp > 58e6 {
		t.Errorf("BDP = %d, want ~54MB", bdp)
	}
}

func buildTestPath(t *testing.T) *Path {
	t.Helper()
	eng := sim.NewEngine(1)
	w := testHost(eng, "west", 1)
	e := testHost(eng, "east", 2)
	return Build(eng, w, e, 0, 0, DefaultConfig())
}

func TestPingAcrossPath(t *testing.T) {
	// A packet makes it Sunnyvale -> Geneva and the ack returns; the
	// handshake alone validates the full route in both directions.
	eng := sim.NewEngine(1)
	w := testHost(eng, "west", 1)
	e := testHost(eng, "east", 2)
	Build(eng, w, e, 0, 0, DefaultConfig())
	cfg := tcp.DefaultConfig(9000)
	cfg.WindowScale = true
	sw := w.OpenSocket(1, e.Addr(), cfg, 0)
	se := e.OpenSocket(1, w.Addr(), cfg, 0)
	se.Listen()
	sw.Connect()
	eng.RunUntil(eng.Now() + units.Second)
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
	eng := sim.NewEngine(1)
	w := testHost(eng, "west", 1)
	e := testHost(eng, "east", 2)
	cfg := DefaultConfig()
	cfg.BottleneckQueue = 256 * units.KB
	p := Build(eng, w, e, 0, 0, cfg)
	var sunk int64
	e.SetUDPSink(func(pk *packet.Packet) { sunk++ })
	w.Pktgen(0, 5000, 9000, e.Addr(), nil)
	eng.RunUntil(eng.Now() + 2*units.Second)
	if p.BottleneckEast.Drops() == 0 {
		t.Error("no drops at the bottleneck despite 5.5 Gb/s into an OC-48")
	}
	if p.BottleneckWest.Drops() != 0 {
		t.Error("drops on the (idle) westbound path")
	}
	if sunk == 0 {
		t.Error("nothing delivered")
	}
}
