package core

import (
	"testing"

	"tengig/internal/capture"
	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/trace"
	"tengig/internal/units"
)

// Wire-level integration: tcpdump-style observations on a calibrated run
// must show the §3.5.1 behaviors.

func TestWireLevelWindowAlignment(t *testing.T) {
	pair, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(9000)), 1)
	if err != nil {
		t.Fatal(err)
	}
	tap := capture.New(1 << 18)
	pair.SrcHost.SetCapture(tap)
	if _, err := tools.NTTCP(pair, 2000, 8948, units.Minute); err != nil {
		t.Fatal(err)
	}
	mss := pair.Src.Conn.MSS()
	quantum := 1 << pair.Dst.Conn.Config().WScale()
	st := tap.AnalyzeWindow(pair.Src.Flow(), mss, quantum)
	if st.Samples < 100 {
		t.Fatalf("too few window samples: %d", st.Samples)
	}
	// Every advertisement is MSS-aligned (modulo the scaling quantum):
	// Linux SWS avoidance on the wire.
	if st.MSSAlignedFraction < 0.99 {
		t.Errorf("MSS-aligned fraction = %.2f, want ~1.0", st.MSSAlignedFraction)
	}
	// A lossless run shows no wire retransmissions.
	if retx := tap.Retransmissions(); len(retx) != 0 {
		t.Errorf("unexpected retransmissions: %d", len(retx))
	}
	// Bulk segments are full-MSS.
	sizes := tap.SegmentSizes()
	if sizes[mss] < 1900 {
		t.Errorf("full-MSS segments = %d of ~2000", sizes[mss])
	}
}

func TestWireLevelRetransmissionVisible(t *testing.T) {
	pair, toB, _ := impairedPair(t, 1, host.Optimized(9000), netem.Fault{DropNth: 300}, netem.Fault{})
	tap := capture.New(1 << 18)
	pair.SrcHost.SetCapture(tap)
	if _, err := tools.NTTCP(pair, 2000, 8948, units.Minute); err != nil {
		t.Fatal(err)
	}
	if toB.Dropped() != 1 {
		t.Fatalf("drops = %d", toB.Dropped())
	}
	if retx := tap.Retransmissions(); len(retx) == 0 {
		t.Error("retransmission not visible on the wire")
	}
}

func TestMagnetPathProfile(t *testing.T) {
	// End-to-end MAGNET run: both hosts share a tracer; the dominant path
	// must be the clean fast path, and stage costs must be sane.
	pair, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(9000)), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(2, 16)
	pair.SrcHost.SetTracer(tr)
	pair.DstHost.SetTracer(tr)
	if _, err := tools.NTTCP(pair, 2000, 8948, units.Minute); err != nil {
		t.Fatal(err)
	}
	paths := tr.PathCounts()
	if len(paths) == 0 {
		t.Fatal("no packet paths recorded")
	}
	if paths[0].Path != "tcp_out>driver_tx>tcp_in" {
		t.Errorf("dominant path = %q", paths[0].Path)
	}
	// The emit-to-deliver span covers qdisc+DMA+wire+coalescing+rx CPU;
	// under load it includes queueing but must stay bounded.
	mean, n := tr.StageCost(trace.StageTCPIn)
	if n < 400 {
		t.Fatalf("too few tcp_in samples: %d", n)
	}
	if mean < 10 || mean > 1000 {
		t.Errorf("emit->deliver mean = %.1f us, implausible", mean)
	}
}
