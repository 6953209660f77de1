// Package netem injects network impairments between a link and its receiver,
// for failure testing and for the WAN loss experiments. It wraps any
// phys.Receiver and models the fault classes a long-haul path actually
// exhibits: independent and bursty (Gilbert-Elliott) loss, duplication,
// payload corruption, extra delay, reordering, and carrier flaps — plus
// time-scheduled fault scripts (script.go) that compose them per link. All
// randomness comes from a per-Impair seeded source, so every campaign is
// reproducible from its seed.
package netem

import (
	"math/rand"

	"tengig/internal/packet"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/units"
)

// GEConfig parameterizes a Gilbert-Elliott two-state Markov loss model: the
// link moves between a good and a bad state with the given per-packet
// transition probabilities, and drops each packet with the loss probability
// of the state it is in. Short PBadGood dwell times with high LossBad produce
// the correlated loss bursts that independent Bernoulli loss cannot express.
type GEConfig struct {
	Enabled  bool    `json:"enabled,omitempty"`
	PGoodBad float64 `json:"p_good_bad,omitempty"` // P(good -> bad) evaluated per packet
	PBadGood float64 `json:"p_bad_good,omitempty"` // P(bad -> good) evaluated per packet
	LossGood float64 `json:"loss_good,omitempty"`  // loss probability while in the good state
	LossBad  float64 `json:"loss_bad,omitempty"`   // loss probability while in the bad state
}

// delayed tracks one packet deferred by extra delay or reordering. Nodes
// live on an intrusive doubly-linked pending list so run teardown
// (Shutdown) can release every in-flight packet, and recycle through a free
// list so steady-state delay paths allocate nothing.
type delayed struct {
	pk         *packet.Packet
	tmr        sim.Timer
	next, prev *delayed
}

// Impair wraps a receiver with a composable set of impairments. The exported
// knob fields may be set directly at construction or switched wholesale at
// simulated times via SetFault / Script.
type Impair struct {
	eng *sim.Engine
	dst phys.Receiver
	rng *rand.Rand

	// LossProb drops each packet independently with this probability.
	LossProb float64
	// GE overlays Gilbert-Elliott bursty loss (evaluated after DropNth,
	// before LossProb).
	GE GEConfig
	// DropNth drops exactly the nth packet (1-based) once; 0 disables.
	// Used to inject the single loss of the paper's Table 1 analysis.
	DropNth int64
	// DropFn, if set, decides per packet (after DropNth and LossProb).
	DropFn func(n int64, pk *packet.Packet) bool
	// CorruptProb flips the packet's Corrupt flag with this probability;
	// the receiving host's checksum verification discards it.
	CorruptProb float64
	// DupProb delivers an extra copy of the packet with this probability.
	DupProb float64
	// ExtraDelay is added to every delivered packet.
	ExtraDelay units.Time
	// ReorderProb delays a packet by ReorderDelay, letting successors pass.
	ReorderProb  float64
	ReorderDelay units.Time

	geBad    bool // current Gilbert-Elliott state
	linkDown bool // carrier lost: everything is dropped

	script    []Step // lazily-applied fault schedule, sorted by step time
	scriptIdx int    // first script step not yet applied

	seen        int64
	dropped     int64
	corrupted   int64
	duplicated  int64
	flapDropped int64

	pending *delayed // packets deferred but not yet delivered
	freeD   *delayed // recycled delayed nodes

	deliverCb func(any) // bound once for delayed deliveries
}

// New wraps dst. The rng seed keeps runs reproducible.
func New(eng *sim.Engine, dst phys.Receiver, seed int64) *Impair {
	im := &Impair{eng: eng, dst: dst, rng: rand.New(rand.NewSource(seed))}
	im.deliverCb = func(x any) { im.deliverDelayed(x.(*delayed)) }
	return im
}

// StreamSeed derives the rng seed for one link direction's Impair purely
// from the campaign seed and the direction's stable identity — link name
// plus direction key — never from construction order. Two compiles that
// build impairs in different orders, or build different subsets of them
// (sparse parallel-DES replicas), therefore hand every surviving Impair an
// identical draw stream, which is what makes fault-scripted runs
// shard-count exact. The mix is FNV-1a over link NUL dir, xored with the
// seed and finished with SplitMix64 so structured names and small seeds
// still land anywhere in the 64-bit space.
func StreamSeed(seed int64, link, dir string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(link); i++ {
		h = (h ^ uint64(link[i])) * prime64
	}
	h *= prime64 // NUL separator: ("ab","c") must not collide with ("a","bc")
	for i := 0; i < len(dir); i++ {
		h = (h ^ uint64(dir[i])) * prime64
	}
	return int64(splitmix64(h ^ uint64(seed)))
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Seen returns packets observed.
func (im *Impair) Seen() int64 { return im.seen }

// Dropped returns packets dropped for any reason (including carrier flaps).
func (im *Impair) Dropped() int64 { return im.dropped }

// Corrupted returns packets marked corrupt.
func (im *Impair) Corrupted() int64 { return im.corrupted }

// Duplicated returns extra copies injected.
func (im *Impair) Duplicated() int64 { return im.duplicated }

// FlapDropped returns packets dropped because the carrier was down.
func (im *Impair) FlapDropped() int64 { return im.flapDropped }

// PendingDelayed returns packets currently held by delay/reorder deferral.
func (im *Impair) PendingDelayed() int {
	n := 0
	for d := im.pending; d != nil; d = d.next {
		n++
	}
	return n
}

// SetLinkDown raises or clears a carrier flap: while down, every packet is
// dropped (and counted in FlapDropped), exactly as a dead transceiver would.
func (im *Impair) SetLinkDown(down bool) { im.linkDown = down }

// LinkDown reports whether the carrier is currently down.
func (im *Impair) LinkDown() bool { return im.linkDown }

// Receive implements phys.Receiver.
//
// Each impairment draws from the rng only when its knob is enabled, in a fixed
// order (GE transition+loss, LossProb, CorruptProb, ReorderProb, DupProb), so
// enabling a new fault class never perturbs the draw sequence — and thus the
// simulated outcome — of a configuration that does not use it.
func (im *Impair) Receive(pk *packet.Packet) {
	// Fault scripts apply lazily: any step due by now switches the knobs
	// before this packet is judged. At a step's exact time this matches the
	// old engine-timer ordering (the switch preceded same-instant packets),
	// without the pending events that kept fault-scripted topologies from
	// compiling quiescently under parallel-DES shards.
	for im.scriptIdx < len(im.script) && im.script[im.scriptIdx].At <= im.eng.Now() {
		im.SetFault(im.script[im.scriptIdx].Fault)
		im.scriptIdx++
	}
	im.seen++
	n := im.seen
	if im.linkDown {
		im.flapDropped++
		im.dropped++
		pk.Release()
		return
	}
	if im.DropNth > 0 && n == im.DropNth {
		im.dropped++
		pk.Release()
		return
	}
	if im.GE.Enabled && im.geLoss() {
		im.dropped++
		pk.Release()
		return
	}
	if im.LossProb > 0 && im.rng.Float64() < im.LossProb {
		im.dropped++
		pk.Release()
		return
	}
	if im.DropFn != nil && im.DropFn(n, pk) {
		im.dropped++
		pk.Release()
		return
	}
	if im.CorruptProb > 0 && im.rng.Float64() < im.CorruptProb {
		pk.Corrupt = true
		im.corrupted++
	}
	delay := im.ExtraDelay
	if im.ReorderProb > 0 && im.rng.Float64() < im.ReorderProb {
		delay += im.ReorderDelay
	}
	if im.DupProb > 0 && im.rng.Float64() < im.DupProb {
		im.duplicated++
		im.send(ClonePacket(pk), delay)
	}
	im.send(pk, delay)
}

// geLoss advances the Gilbert-Elliott state machine by one packet and
// reports whether that packet is lost.
func (im *Impair) geLoss() bool {
	if im.geBad {
		if im.rng.Float64() < im.GE.PBadGood {
			im.geBad = false
		}
	} else {
		if im.rng.Float64() < im.GE.PGoodBad {
			im.geBad = true
		}
	}
	p := im.GE.LossGood
	if im.geBad {
		p = im.GE.LossBad
	}
	return p > 0 && im.rng.Float64() < p
}

// send delivers pk now (delay 0) or defers it, tracking the deferral so
// Shutdown can reclaim it.
func (im *Impair) send(pk *packet.Packet, delay units.Time) {
	if delay == 0 {
		im.dst.Receive(pk)
		return
	}
	d := im.freeD
	if d != nil {
		im.freeD = d.next
	} else {
		d = &delayed{}
	}
	d.pk = pk
	d.prev = nil
	d.next = im.pending
	if im.pending != nil {
		im.pending.prev = d
	}
	im.pending = d
	d.tmr = im.eng.AfterCall(delay, im.deliverCb, d)
}

// deliverDelayed completes a deferred delivery.
func (im *Impair) deliverDelayed(d *delayed) {
	pk := d.pk
	im.unlink(d)
	im.dst.Receive(pk)
}

// unlink removes d from the pending list and recycles the node.
func (im *Impair) unlink(d *delayed) {
	if d.prev != nil {
		d.prev.next = d.next
	} else {
		im.pending = d.next
	}
	if d.next != nil {
		d.next.prev = d.prev
	}
	d.pk = nil
	d.prev = nil
	d.next = im.freeD
	im.freeD = d
}

// Shutdown releases every packet still held by delay/reorder deferral and
// cancels its delivery timer, returning the count reclaimed. Run teardown
// must call it (once per Impair) before auditing pool balances: a packet
// in deferred flight when the run ends is owned by netem, and without this
// hand-back the leak auditor would charge it to the host that allocated it.
func (im *Impair) Shutdown() int {
	n := 0
	for d := im.pending; d != nil; {
		next := d.next
		d.tmr.Stop()
		d.pk.Release()
		d.pk = nil
		d.prev = nil
		d.next = im.freeD
		im.freeD = d
		d = next
		n++
	}
	im.pending = nil
	return n
}

// ClonePacket returns an unpooled deep copy: the clone's segment (if any)
// is copied too, because releasing the original recycles its segment into
// the origin pool while the clone may still be in flight. Used for fault
// duplication here and for cross-shard packet transfer in parallel DES,
// where the original must return to its source-shard pool while the copy
// travels to another engine.
func ClonePacket(pk *packet.Packet) *packet.Packet {
	cp := pk.CloneUnpooled()
	if seg, ok := pk.Seg.(*tcp.Segment); ok && seg != nil {
		s := *seg
		if len(seg.SACKBlocks) > 0 {
			s.SACKBlocks = append([]tcp.SackBlock(nil), seg.SACKBlocks...)
		} else {
			s.SACKBlocks = nil
		}
		cp.Seg = &s
	}
	return cp
}
