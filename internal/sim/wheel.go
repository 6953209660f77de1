package sim

import (
	"math"
	"math/bits"

	"tengig/internal/units"
)

// wheelSched is a hierarchical timing wheel (Varghese/Lauck) whose level 0
// is a circular calendar queue (Brown, CACM 1988) over slot keys,
// key = tick >> wheelGrain: 1024 slots of 2^18 picoseconds (about 262 ns),
// a window of 2^28 ps (about 268 µs) that starts at cur, the slot key the
// wheel has advanced to. Six levels of 64 aligned slots sit above the
// window, each level 64x coarser than the one below; level 1's slots are
// one window wide. Scheduling, cancelling and rescheduling are O(1), and
// an event due inside the window — nearly every event of a packet-level
// run: serialization, DMA, interrupt and link-hop delays — is filed
// exactly once, in the slot its key selects, and never cascades
// (Engine.Filed counts filings).
//
// # Placement
//
// An event whose key lies in [cur, cur+1024) is filed at level 0 in slot
// key & 1023; slots are reused as the window moves, so slot key & 1023
// stands for exactly one key of the window. An event behind cur goes to
// the current slot (the one cur selects), which is the ready list. An
// event beyond the window is filed at the level of the highest bit where
// its key differs from cur, in the aligned slot its own key bits select
// there:
//
//	level 0  1024 slots of 1 key, circular   keys [cur, cur+1024)
//	level 1  64 slots of 1024 keys           cur's 65536-key block
//	level l  64 slots of 1024·64^(l-1) keys  ...
//
// Every occupied slot of a level l >= 1 lies in cur's level-(l+1) block
// and starts after cur, and lower levels' slots start before higher
// levels' ones. A level-1 slot may overlap the window's upper end, since
// the window is not aligned to it.
//
// # Advance and determinism
//
// Pops must come out in ascending (at, ct, seq) order, byte-identical to
// the test model's heap. The earliest pending event is the current slot's
// head; when that slot is empty, advance compares the next occupied
// level-0 slot's key (found in O(1): a summary word over the 16 bitmap
// words, then TrailingZeros) with the start of the lowest higher-level
// slot (the lowest occupied slot of the lowest occupied level). If the
// higher-level slot starts at or before that key, it is cascaded first:
// cur moves to its start and its live events are re-filed, into the
// window or a lower level. Otherwise cur moves onto the level-0 slot,
// which becomes current; nothing is re-filed. So no level-0 slot becomes
// current while an event with its key waits above, and every level-0
// slot is kept sorted by (at, ct, seq) at insert, so the current slot
// pops in order. The golden digests and the lockstep oracle
// (sched_equiv_test.go) pin this.
//
// # Bounded advance and lazy cancellation
//
// popDue(limit) and peek(limit) advance the wheel only while the next
// candidate slot's first picosecond is at or before limit, so RunUntil with
// a near deadline never cascades far-future timers (and never pays to
// re-file them). Advancing onto a level-0 slot straddling limit makes it
// current, so the current slot may hold events due after limit; they are
// reported only once limit reaches them. Because the engine's clock may sit
// behind cur after such an advance, a later Schedule can target a key the
// wheel has already passed; those events go into the current slot at their
// sorted position. Cancelled (dead) events are pruned whenever a cascade
// touches them instead of riding the wheel down to level 0 — RTO-style
// timers that are armed far out and almost always cancelled cost one insert
// and one prune, never a full cascade. Dead events that do reach level 0
// leave it at pop, where the engine recycles them.
const (
	// wheelGrain is log2 of the level-0 slot width in ticks (picoseconds).
	wheelGrain = 18
	// windowBits is log2 of level 0's slot count.
	windowBits  = 10
	windowSlots = 1 << windowBits // 1024
	windowMask  = windowSlots - 1
	windowWords = windowSlots / 64 // level-0 bitmap words
	wheelBits   = 6
	wheelSlots  = 1 << wheelBits // 64 per level above the window
	wheelMask   = wheelSlots - 1
	// wheelLevels is the number of levels above the window. They must
	// cover every key bit above it: a positive int64 tick has 63 bits, its
	// key 63-18 = 45, and bit 44 lives at level 1 + (44-10)/6 = 6.
	wheelLevels = 6
	// nSlots counts every slot. A slot index is a level-0 slot
	// (0..1023), or windowSlots + (l-1)*wheelSlots + s for slot s of level
	// l >= 1, so idx>>6 is the slot's bitmap word at every level.
	nSlots = windowSlots + wheelLevels*wheelSlots
	nWords = nSlots / 64
)

// idxNone is event.idx outside the wheel. While an event is held its idx
// is a slot index.
const idxNone = -1

// wheelSlot links one slot's events, doubly so Reschedule can unlink in
// O(1). Level-0 slots are sorted by (at, ct, seq), next pop first;
// higher-level slots are in filing order.
type wheelSlot struct{ head, tail *event }

type wheelSched struct {
	eng *Engine
	cur int64 // slot key the wheel has advanced to (tick >> wheelGrain)
	// occ has one bit per non-empty slot, by slot index; sum has one bit
	// per non-zero occ word.
	occ  [nWords]uint64
	sum  uint32
	slot [nSlots]wheelSlot
	// finger is the event a level-0 insert last walked to, while it is
	// still filed (nil otherwise): a later walk into the same slot whose
	// event sorts after it starts there instead of at the head.
	finger *event
}

func newWheel(eng *Engine) *wheelSched { return &wheelSched{eng: eng} }

// mark and clear keep occ and sum in step with slot idx's emptiness.
func (w *wheelSched) mark(idx int) {
	w.occ[idx>>6] |= 1 << uint(idx&63)
	w.sum |= 1 << uint(idx>>6)
}

func (w *wheelSched) clear(idx int) {
	wd := idx >> 6
	if w.occ[wd] &^= 1 << uint(idx&63); w.occ[wd] == 0 {
		w.sum &^= 1 << uint(wd)
	}
}

// insert files ev by its key: behind cur into the current slot, inside the
// window into its level-0 slot, beyond it into the aligned slot its
// highest cur-differing bit selects. A level-0 slot stays sorted by
// (at, ct, seq): appending at the tail is the common case (fresh events
// carry the largest seq, and a slot's events mostly arrive in time
// order), and an event that sorts earlier walks to its place.
func (w *wheelSched) insert(ev *event) {
	w.eng.Filed++
	k := int64(ev.at) >> wheelGrain
	if k-w.cur >= windowSlots {
		w.insertAbove(k, ev)
		return
	}
	idx := int(max(k, w.cur) & windowMask)
	ev.idx = idx
	s := &w.slot[idx]
	switch t := s.tail; {
	case t == nil:
		ev.prev, ev.next = nil, nil
		s.head, s.tail = ev, ev
		w.mark(idx)
	case evLess(t, ev):
		ev.prev, ev.next = t, nil
		t.next = ev
		s.tail = ev
	default:
		w.walkInsert(s, ev)
	}
}

// insertAbove appends ev, whose key k lies beyond the window, to the
// aligned slot of the level of its highest bit that differs from cur.
func (w *wheelSched) insertAbove(k int64, ev *event) {
	l := (63 - bits.LeadingZeros64(uint64(k^w.cur)) - windowBits) / wheelBits // level - 1
	idx := windowSlots + l*wheelSlots + int(k>>uint(windowBits+l*wheelBits))&wheelMask
	s := &w.slot[idx]
	ev.idx = idx
	ev.next = nil
	ev.prev = s.tail
	if s.tail == nil {
		s.head = ev
		w.mark(idx)
	} else {
		s.tail.next = ev
	}
	s.tail = ev
}

// walkInsert links ev into level-0 slot s, whose tail sorts after it, at
// its (at, ct, seq) position. The walk starts at the head, where the next
// pops sit, or at the finger when it is in this slot and sorts before ev.
// The finger keeps a burst of interleaved ascending runs (many events due
// within one slot, scheduled round-robin) from walking the whole slot
// each time.
func (w *wheelSched) walkInsert(s *wheelSlot, ev *event) {
	n := s.head
	if f := w.finger; f != nil && f.idx == ev.idx && evLess(f, ev) {
		n = f.next // not nil: f sorts before ev, and the tail does not
	}
	for evLess(n, ev) { // terminates: the tail is not less than ev
		n = n.next
	}
	w.finger = ev
	ev.next = n
	ev.prev = n.prev
	if n.prev == nil {
		s.head = ev
	} else {
		n.prev.next = ev
	}
	n.prev = ev
}

// unlink removes ev from the slot that holds it.
func (w *wheelSched) unlink(ev *event) {
	if ev == w.finger {
		w.finger = nil
	}
	idx := ev.idx
	s := &w.slot[idx]
	if ev.prev == nil {
		s.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		s.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if s.head == nil {
		w.clear(idx)
	}
	ev.prev, ev.next = nil, nil
	ev.idx = idxNone
}

// update re-files ev after its (at, ct, seq) changed in place (Reschedule).
func (w *wheelSched) update(ev *event) {
	w.unlink(ev)
	w.insert(ev)
}

// peek returns the current slot's head if it is due at or before limit,
// advancing the wheel while the current slot is empty and the next
// candidate slot starts at or before limit. It returns nil otherwise.
func (w *wheelSched) peek(limit units.Time) *event {
	for {
		if ev := w.slot[w.cur&windowMask].head; ev != nil {
			if ev.at > limit {
				return nil
			}
			return ev
		}
		if !w.advance(limit) {
			return nil
		}
	}
}

// popDue removes and returns the earliest event if it is due at or before
// limit, nil otherwise: the current slot's head, after advancing exactly as
// peek does.
func (w *wheelSched) popDue(limit units.Time) *event {
	for {
		s := &w.slot[w.cur&windowMask]
		ev := s.head
		if ev == nil {
			if !w.advance(limit) {
				return nil
			}
			continue
		}
		if ev.at > limit {
			return nil
		}
		if ev == w.finger {
			w.finger = nil
		}
		if s.head = ev.next; s.head == nil {
			s.tail = nil
			w.clear(ev.idx)
		} else {
			s.head.prev = nil
			ev.next = nil
		}
		ev.idx = idxNone
		return ev
	}
}

// advance moves the wheel one step toward its earliest event; peek calls
// it only while the current slot is empty. It compares the key of the next
// occupied level-0 slot with the first key of the lowest higher-level
// slot. If that slot starts at or before the level-0 key, advance moves
// cur to its start and empties it, re-filing live events into the window
// or a lower level and pruning dead ones; otherwise it moves cur onto the
// level-0 slot, which becomes current. Either way the target's first
// picosecond must be at or before limit. It reports whether it advanced.
func (w *wheelSched) advance(limit units.Time) bool {
	next := int64(math.MaxInt64) // key of the next occupied level-0 slot
	if w.sum&(1<<windowWords-1) != 0 {
		next = w.cur + int64((w.nextSlot()-int(w.cur))&windowMask)
	}
	if hi := w.sum >> windowWords; hi != 0 {
		l := bits.TrailingZeros32(hi) // level - 1
		s := bits.TrailingZeros64(w.occ[windowWords+l])
		shift := uint(windowBits + l*wheelBits)
		// First key the slot covers: cur's bits above this level, then
		// the slot's own. At the top level the mask covers every key bit,
		// so the block is zero — the whole key space the top level spans.
		block := uint64(w.cur) &^ (uint64(1)<<(shift+wheelBits) - 1)
		if start := int64(block | uint64(s)<<shift); start <= next {
			if units.Time(start<<wheelGrain) > limit {
				return false
			}
			w.cur = start
			w.cascade(windowSlots + l*wheelSlots + s)
			return true
		}
	}
	if next == math.MaxInt64 || units.Time(next<<wheelGrain) > limit {
		return false
	}
	w.cur = next
	return true
}

// nextSlot returns the first occupied level-0 slot at or after the current
// one, circularly; level 0 must hold an event.
func (w *wheelSched) nextSlot() int {
	c := int(w.cur & windowMask)
	wd := c >> 6
	if m := w.occ[wd] >> uint(c&63); m != 0 {
		return c + bits.TrailingZeros64(m)
	}
	sum := w.sum & (1<<windowWords - 1)
	if m := sum >> uint(wd+1); m != 0 {
		wd += 1 + bits.TrailingZeros32(m)
	} else {
		wd = bits.TrailingZeros32(sum) // wrap around the window
	}
	return wd<<6 + bits.TrailingZeros64(w.occ[wd])
}

// cascade empties higher-level slot idx, whose first key is now cur,
// re-filing its live events and recycling its dead ones.
func (w *wheelSched) cascade(idx int) {
	ev := w.slot[idx].head
	w.slot[idx] = wheelSlot{}
	w.clear(idx)
	for ev != nil {
		next := ev.next
		ev.prev, ev.next = nil, nil
		ev.idx = idxNone
		if ev.dead() {
			// Prune cancelled timers at first touch instead of
			// cascading them down to level 0.
			w.eng.recycle(ev)
		} else {
			w.insert(ev)
		}
		ev = next
	}
}

// reset recycles every held event, walking only occupied slots, and
// rewinds the wheel to key zero. The slot arrays are fixed-size fields, so
// a reset engine reuses them as-is — that is the point of Engine.Reset.
func (w *wheelSched) reset() {
	w.finger = nil
	for ; w.sum != 0; w.sum &= w.sum - 1 {
		wd := bits.TrailingZeros32(w.sum)
		for o := w.occ[wd]; o != 0; o &= o - 1 {
			idx := wd<<6 + bits.TrailingZeros64(o)
			for ev := w.slot[idx].head; ev != nil; {
				next := ev.next
				ev.prev, ev.next = nil, nil
				ev.idx = idxNone
				w.eng.recycle(ev)
				ev = next
			}
			w.slot[idx] = wheelSlot{}
		}
		w.occ[wd] = 0
	}
	w.cur = 0
}
