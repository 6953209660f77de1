package core

import (
	"testing"

	"tengig/internal/host"
	"tengig/internal/netem"
	"tengig/internal/sim"
	"tengig/internal/tools"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Failure-injection integration tests: the full calibrated stack must
// survive loss, reordering, and delay on the wire.

// impairedPair compiles the Figure 2(a) testbed of PE2650 hosts with the
// data and ack faults on the crossover from t=0, returning the pair and the
// netem stage of each direction (nil where the fault is zero).
func impairedPair(t testing.TB, seed int64, tun host.Tuning, data, ack netem.Fault) (pair *tools.Pair, toB, toA *netem.Impair) {
	t.Helper()
	spec := topo.BackToBack(host.PE2650, tun)
	faults := &topo.LinkFaults{}
	if data != (netem.Fault{}) {
		faults.AtoB = netem.Script{{Fault: data}}
	}
	if ack != (netem.Fault{}) {
		faults.BtoA = netem.Script{{Fault: ack}}
	}
	spec.Links[0].Faults = faults
	net, err := topo.Compile(sim.NewEngine(seed), spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	ims, names := net.Impairs()
	for i, im := range ims {
		switch names[i] {
		case "crossover/a>b":
			toB = im
		case "crossover/b>a":
			toA = im
		}
	}
	return net.Pairs[0], toB, toA
}

func TestImpairedSingleLossFastRetransmit(t *testing.T) {
	// Drop exactly one mid-stream data packet: the sender must recover via
	// fast retransmit (dup acks), not a timeout, and deliver everything.
	pair, toB, _ := impairedPair(t, 1, host.Optimized(9000), netem.Fault{DropNth: 500}, netem.Fault{})
	res, err := tools.NTTCP(pair, 4000, 8948, units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if toB.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", toB.Dropped())
	}
	s := pair.Src.Conn.Stats
	if s.FastRetransmits != 1 {
		t.Errorf("fast retransmits = %d, want 1 (stats %+v)", s.FastRetransmits, s)
	}
	if s.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0", s.Timeouts)
	}
	if res.Bytes != 4000*8948 {
		t.Errorf("delivered %d", res.Bytes)
	}
}

func TestImpairedRandomLossCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("long failure-injection test")
	}
	// 0.2% random loss in both directions: throughput suffers but the
	// transfer completes, all bytes intact.
	pair, toB, toA := impairedPair(t, 3, host.Optimized(9000),
		netem.Fault{LossProb: 0.002}, netem.Fault{LossProb: 0.002})
	const count, payload = 8000, 8948
	res, err := tools.NTTCP(pair, count, payload, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != count*payload {
		t.Fatalf("delivered %d of %d", res.Bytes, count*payload)
	}
	if toB.Dropped()+toA.Dropped() == 0 {
		t.Fatal("no losses injected")
	}
	if res.Retransmits == 0 {
		t.Error("no retransmissions despite loss")
	}
	// Compare against a clean run: loss must cost throughput.
	clean, err := compilePair(topo.BackToBack(host.PE2650, host.Optimized(9000)), 3)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := tools.NTTCP(clean, count, payload, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput >= cres.Throughput {
		t.Errorf("lossy (%v) should be slower than clean (%v)", res.Throughput, cres.Throughput)
	}
}

func TestImpairedReorderingCompletes(t *testing.T) {
	// 2% of data packets delayed past their successors: dup acks fire but
	// every byte still arrives in order at the application.
	pair, _, _ := impairedPair(t, 5, host.Optimized(9000),
		netem.Fault{ReorderProb: 0.02, ReorderDelay: 60 * units.Microsecond}, netem.Fault{})
	const count, payload = 4000, 8948
	res, err := tools.NTTCP(pair, count, payload, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != count*payload {
		t.Fatalf("delivered %d", res.Bytes)
	}
	if pair.Dst.Conn.Stats.OutOfOrderSegs == 0 {
		t.Error("no out-of-order segments observed despite reordering")
	}
}

func TestImpairedExtraDelayStretchesRTT(t *testing.T) {
	// Symmetric +500us per direction adds ~1ms to the measured RTT.
	delay := netem.Fault{ExtraDelay: 500 * units.Microsecond}
	pair, _, _ := impairedPair(t, 7, host.Optimized(9000), delay, delay)
	if _, err := tools.NTTCP(pair, 2000, 8948, units.Minute); err != nil {
		t.Fatal(err)
	}
	if rtt := pair.Src.Conn.SRTT(); rtt < units.Millisecond {
		t.Errorf("SRTT = %v, want > 1ms with injected delay", rtt)
	}
}

func TestImpairedAckLossTolerated(t *testing.T) {
	// Pure ack loss (cumulative acks are redundant): the transfer completes
	// with few or no retransmissions.
	pair, _, toA := impairedPair(t, 9, host.Optimized(9000), netem.Fault{}, netem.Fault{LossProb: 0.05})
	const count, payload = 4000, 8948
	res, err := tools.NTTCP(pair, count, payload, 10*units.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != count*payload {
		t.Fatalf("delivered %d", res.Bytes)
	}
	if toA.Dropped() == 0 {
		t.Fatal("no acks dropped")
	}
	// Lost cumulative acks are covered by their successors.
	if res.Retransmits > 20 {
		t.Errorf("retransmits = %d; ack loss should be mostly harmless", res.Retransmits)
	}
}
