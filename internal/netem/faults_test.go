package netem

import (
	"math"
	"testing"

	"tengig/internal/packet"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/units"
)

// TestDropFnOrdering pins the decision order: DropNth fires before DropFn,
// and a packet LossProb claims never reaches DropFn.
func TestDropFnOrdering(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.DropNth = 2
	var sawN []int64
	im.DropFn = func(n int64, pk *packet.Packet) bool {
		sawN = append(sawN, n)
		return false
	}
	for i := 1; i <= 4; i++ {
		im.Receive(&packet.Packet{ID: uint64(i)})
	}
	eng.Run()
	if len(sawN) != 3 || sawN[0] != 1 || sawN[1] != 3 || sawN[2] != 4 {
		t.Fatalf("DropFn saw %v; want [1 3 4] (packet 2 claimed by DropNth first)", sawN)
	}
	if im.Seen() != 4 || im.Dropped() != 1 {
		t.Fatalf("seen=%d dropped=%d", im.Seen(), im.Dropped())
	}

	// With certain loss, DropFn must never be consulted.
	eng2 := sim.NewEngine(1)
	im2 := New(eng2, &collector{eng: eng2}, 1)
	im2.LossProb = 1.0
	called := false
	im2.DropFn = func(int64, *packet.Packet) bool { called = true; return false }
	im2.Receive(&packet.Packet{})
	if called {
		t.Fatal("DropFn consulted after LossProb already dropped the packet")
	}
	if im2.Dropped() != 1 {
		t.Fatalf("dropped=%d", im2.Dropped())
	}
}

// TestSeenDroppedCounters checks the counters tally every decision path.
func TestSeenDroppedCounters(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.DropNth = 1
	im.DropFn = func(n int64, pk *packet.Packet) bool { return n == 3 }
	for i := 1; i <= 5; i++ {
		im.Receive(&packet.Packet{ID: uint64(i)})
	}
	eng.Run()
	if im.Seen() != 5 {
		t.Errorf("seen = %d, want 5", im.Seen())
	}
	if im.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2 (DropNth + DropFn)", im.Dropped())
	}
	if got := int64(len(c.got)); got != im.Seen()-im.Dropped() {
		t.Errorf("delivered %d, want seen-dropped = %d", got, im.Seen()-im.Dropped())
	}
}

// TestReorderSuccessorPasses pins the mechanism, deterministically: a packet
// held by reorder delay is overtaken by a later packet sent while it waits.
func TestReorderSuccessorPasses(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.ReorderProb = 1.0
	im.ReorderDelay = 10 * units.Microsecond
	im.Receive(&packet.Packet{ID: 1}) // held until t=10µs
	im.ReorderProb = 0
	im.Receive(&packet.Packet{ID: 2}) // delivered immediately at t=0
	if im.PendingDelayed() != 1 {
		t.Fatalf("pending = %d, want 1", im.PendingDelayed())
	}
	eng.Run()
	if len(c.got) != 2 || c.got[0].ID != 2 || c.got[1].ID != 1 {
		t.Fatalf("delivery order %v; want successor (2) before held packet (1)", c.got)
	}
	if c.at[0] != 0 || c.at[1] != 10*units.Microsecond {
		t.Fatalf("delivery times %v", c.at)
	}
	if im.PendingDelayed() != 0 {
		t.Fatalf("pending after drain = %d", im.PendingDelayed())
	}
}

// TestGilbertElliott checks both the long-run loss rate and the burstiness
// that distinguishes GE from independent loss.
func TestGilbertElliott(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 7)
	im.GE = GEConfig{Enabled: true, PGoodBad: 0.01, PBadGood: 0.3, LossGood: 0, LossBad: 1.0}
	const n = 50000
	drops := make([]bool, n)
	for i := 0; i < n; i++ {
		before := im.Dropped()
		im.Receive(&packet.Packet{})
		drops[i] = im.Dropped() > before
	}
	eng.Run()
	// Stationary bad-state fraction = pGB/(pGB+pBG) ≈ 0.0323.
	rate := float64(im.Dropped()) / n
	want := 0.01 / 0.31
	if math.Abs(rate-want) > 0.01 {
		t.Errorf("GE loss rate = %.4f, want ~%.4f", rate, want)
	}
	// Mean drop-run length ≈ 1/pBadGood ≈ 3.3; independent loss gives ~1.03.
	runs, inRun, runLen, totalLen := 0, false, 0, 0
	for _, d := range drops {
		if d {
			runLen++
			inRun = true
		} else if inRun {
			runs++
			totalLen += runLen
			runLen, inRun = 0, false
		}
	}
	if runs == 0 {
		t.Fatal("no loss bursts observed")
	}
	meanRun := float64(totalLen) / float64(runs)
	if meanRun < 2.0 {
		t.Errorf("mean loss-burst length = %.2f; GE should burst (want > 2)", meanRun)
	}
}

// TestCorruption: corrupt packets are delivered, marked, and counted.
func TestCorruption(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.CorruptProb = 1.0
	for i := 0; i < 5; i++ {
		im.Receive(&packet.Packet{ID: uint64(i)})
	}
	eng.Run()
	if len(c.got) != 5 || im.Corrupted() != 5 || im.Dropped() != 0 {
		t.Fatalf("got %d corrupted %d dropped %d", len(c.got), im.Corrupted(), im.Dropped())
	}
	for _, pk := range c.got {
		if !pk.Corrupt {
			t.Fatal("delivered packet not marked corrupt")
		}
	}
}

// TestDuplication: a duplicated packet arrives as a distinct unpooled deep
// copy (segment included), and releasing the originals still balances the
// origin pool.
func TestDuplication(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.DupProb = 1.0
	pool := packet.NewPool()
	const n = 4
	for i := 0; i < n; i++ {
		pk := pool.Get()
		pk.ID = uint64(i)
		pk.Seg = &tcp.Segment{Seq: int64(i * 100), Len: 100,
			SACKBlocks: []tcp.SackBlock{{From: 1, To: 2}}}
		im.Receive(pk)
	}
	eng.Run()
	if len(c.got) != 2*n || im.Duplicated() != n {
		t.Fatalf("delivered %d duplicated %d", len(c.got), im.Duplicated())
	}
	// Clones precede originals in pairs? No: original is sent after the
	// clone in Receive, both at delay 0, so clone arrives first. Verify the
	// pairs alias nothing.
	for i := 0; i < len(c.got); i += 2 {
		a, b := c.got[i], c.got[i+1]
		if a == b || a.Seg == b.Seg {
			t.Fatal("duplicate aliases the original packet or segment")
		}
		sa, sb := a.Seg.(*tcp.Segment), b.Seg.(*tcp.Segment)
		if sa.Seq != sb.Seq || len(sa.SACKBlocks) != len(sb.SACKBlocks) {
			t.Fatalf("duplicate segment differs: %v vs %v", sa, sb)
		}
		if &sa.SACKBlocks[0] == &sb.SACKBlocks[0] {
			t.Fatal("duplicate shares the SACK backing array")
		}
	}
	// Release everything delivered: pooled originals return, unpooled
	// clones no-op, and the pool balances.
	for _, pk := range c.got {
		pk.Release()
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("pool outstanding = %d after releasing all deliveries", pool.Outstanding())
	}
}

// TestLinkFlap: a downed carrier drops everything; restoring it passes
// traffic again.
func TestLinkFlap(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.SetLinkDown(true)
	for i := 0; i < 3; i++ {
		im.Receive(&packet.Packet{})
	}
	im.SetLinkDown(false)
	im.Receive(&packet.Packet{ID: 99})
	eng.Run()
	if im.FlapDropped() != 3 || im.Dropped() != 3 {
		t.Fatalf("flapDropped=%d dropped=%d", im.FlapDropped(), im.Dropped())
	}
	if len(c.got) != 1 || c.got[0].ID != 99 {
		t.Fatalf("delivered %v", c.got)
	}
}

// TestShutdownReleasesDeferred is the end-of-life fix: packets parked by
// delay/reorder at teardown are released to their origin pool, not leaked
// and not delivered.
func TestShutdownReleasesDeferred(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	im.ExtraDelay = 50 * units.Microsecond
	pool := packet.NewPool()
	const n = 5
	for i := 0; i < n; i++ {
		im.Receive(pool.Get())
	}
	if pool.Outstanding() != n || im.PendingDelayed() != n {
		t.Fatalf("outstanding=%d pending=%d", pool.Outstanding(), im.PendingDelayed())
	}
	if got := im.Shutdown(); got != n {
		t.Fatalf("Shutdown reclaimed %d, want %d", got, n)
	}
	if pool.Outstanding() != 0 {
		t.Fatalf("pool outstanding = %d after Shutdown", pool.Outstanding())
	}
	eng.Run() // any surviving delivery timer would fire here
	if len(c.got) != 0 {
		t.Fatalf("%d shutdown packets still delivered", len(c.got))
	}
	if im.Shutdown() != 0 {
		t.Fatal("second Shutdown reclaimed packets")
	}
}

// TestScriptApply drives a timed fault schedule: loss on at 5µs, healed at
// 10µs.
func TestScriptApply(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	script := Script{
		{At: 10 * units.Microsecond}, // heal (listed out of order on purpose)
		{At: 5 * units.Microsecond, Fault: Fault{LossProb: 1.0}},
	}
	if err := im.SetScript(script); err != nil {
		t.Fatal(err)
	}
	for _, at := range []units.Time{0, 6 * units.Microsecond, 12 * units.Microsecond} {
		at := at
		eng.Schedule(at, func() { im.Receive(&packet.Packet{ID: uint64(at)}) })
	}
	eng.Run()
	if im.Seen() != 3 || im.Dropped() != 1 {
		t.Fatalf("seen=%d dropped=%d; want the 6µs packet dropped", im.Seen(), im.Dropped())
	}
	if len(c.got) != 2 || c.got[0].ID != 0 || c.got[1].ID != uint64(12*units.Microsecond) {
		t.Fatalf("delivered %v", c.got)
	}
}

// TestScriptDropNth pins the scripted single loss: a step at t=0 with
// drop_nth 3 drops exactly the third packet the stage sees, and a negative
// drop_nth is rejected.
func TestScriptDropNth(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	if err := im.SetScript(Script{{Fault: Fault{DropNth: 3}}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		im.Receive(&packet.Packet{ID: uint64(i)})
	}
	if im.Seen() != 6 || im.Dropped() != 1 {
		t.Fatalf("seen=%d dropped=%d; want exactly one drop", im.Seen(), im.Dropped())
	}
	for _, pk := range c.got {
		if pk.ID == 3 {
			t.Fatal("packet 3 was delivered")
		}
	}
	if err := (Script{{Fault: Fault{DropNth: -1}}}).Validate(); err == nil {
		t.Error("negative drop_nth accepted")
	}
}

// TestScriptLazyApplication pins the lazy-application semantics SetScript
// promises: no engine events are scheduled (compile quiescence, the
// property parallel-DES shard replication rests on), several overdue steps
// collapse to the last one at the next arrival, and a step due exactly at a
// packet's time switches the knobs before that packet is judged.
func TestScriptLazyApplication(t *testing.T) {
	eng := sim.NewEngine(1)
	c := &collector{eng: eng}
	im := New(eng, c, 1)
	err := im.SetScript(Script{
		{At: 2 * units.Microsecond, Fault: Fault{LinkDown: true}},
		{At: 4 * units.Microsecond, Fault: Fault{LossProb: 1.0}},
		{At: 8 * units.Microsecond}, // heal
	})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Pending() != 0 {
		t.Fatalf("SetScript scheduled %d engine events; lazy scripts must schedule none", eng.Pending())
	}
	// First packet arrives at 5µs: both overdue steps apply, last wins —
	// the carrier is up, the loss knob drops the packet.
	for _, at := range []units.Time{5 * units.Microsecond, 8 * units.Microsecond} {
		at := at
		eng.Schedule(at, func() { im.Receive(&packet.Packet{ID: uint64(at)}) })
	}
	eng.Run()
	if im.LinkDown() {
		t.Error("stale linkDown: the 4µs step should have superseded the 2µs one")
	}
	if im.FlapDropped() != 0 || im.Dropped() != 1 {
		t.Errorf("flap=%d dropped=%d; want the 5µs packet lost to LossProb only",
			im.FlapDropped(), im.Dropped())
	}
	// The 8µs packet arrives exactly at the heal step's time: heal first.
	if len(c.got) != 1 || c.got[0].ID != uint64(8*units.Microsecond) {
		t.Errorf("delivered %v; want exactly the 8µs packet", c.got)
	}
}

// TestStreamSeed pins the per-link stream derivation: a pure function of
// (seed, link, direction) — order of construction never enters — with
// distinct streams for every distinct identity, including the
// concatenation ambiguity ("ab","c") vs ("a","bc").
func TestStreamSeed(t *testing.T) {
	if StreamSeed(42, "trunk-0", "a>b") != StreamSeed(42, "trunk-0", "a>b") {
		t.Error("StreamSeed is not deterministic")
	}
	seeds := map[int64]string{}
	for _, tc := range []struct {
		seed      int64
		link, dir string
	}{
		{42, "trunk-0", "a>b"},
		{42, "trunk-0", "b>a"},
		{42, "trunk-1", "a>b"},
		{43, "trunk-0", "a>b"},
		{42, "ab", "c"},
		{42, "a", "bc"},
	} {
		id := tc.link + "|" + tc.dir
		s := StreamSeed(tc.seed, tc.link, tc.dir)
		if prev, dup := seeds[s]; dup {
			t.Errorf("seed collision: (%d,%s) and %s both map to %d", tc.seed, id, prev, s)
		}
		seeds[s] = id
	}
}

// TestScriptValidate rejects impossible link conditions.
func TestScriptValidate(t *testing.T) {
	bad := []Script{
		{{At: -1}},
		{{Fault: Fault{LossProb: 1.5}}},
		{{Fault: Fault{DupProb: -0.1}}},
		{{Fault: Fault{ExtraDelay: -units.Microsecond}}},
		{{Fault: Fault{GE: GEConfig{PGoodBad: 2}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("script %d validated but is invalid", i)
		}
	}
	ok := Script{{At: units.Millisecond, Fault: Fault{LossProb: 0.5, LinkDown: true}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid script rejected: %v", err)
	}
}
