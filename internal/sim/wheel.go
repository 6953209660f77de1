package sim

import (
	"math/bits"

	"tengig/internal/units"
)

// wheelSched is a hierarchical timing wheel (Varghese/Lauck) whose level 0
// is a coarse calendar queue (Brown, CACM 1988): a stack of bucket arrays
// over slot keys, key = tick >> wheelGrain, so one level-0 slot spans 2^20
// picoseconds (about 1.05 µs, one 1500-byte frame at 10 Gb/s). There are
// 64 slots per level, each level 64x coarser than the one below.
// Scheduling, cancelling, and rescheduling are O(1); an event cascades down
// at most wheelLevels-1 times before it reaches level 0, so the total work
// per event is O(1) amortized — against the heap's O(log n) sift per
// operation, with n in the hundreds for a busy multi-flow simulation.
//
// # Placement
//
// The wheel tracks cur, the slot key it has advanced to. An event lands at
// the level of the highest bit where its key differs from cur — i.e. the
// coarsest level at which it is distinguishable from "now" — in the slot its
// own key bits select there:
//
//	level 0  slots of 1 key (2^20 ps)     next 64 keys
//	level 1  slots of 64 keys             next 4096 keys
//	level l  slots of 64^l keys           ...
//
// The level-0 slot cur selects is the current slot: it is the ready list,
// and it also takes every event whose key is at or behind cur. Every other
// occupied slot is strictly ahead of cur's position at its level, so the
// earliest pending event is the current slot's head, or — when that slot is
// empty — in the lowest occupied level's lowest occupied slot (one
// TrailingZeros64 per level finds it). Advancing onto a level-0 slot only
// moves cur, which makes that slot current; advancing into a higher-level
// slot re-files its events one level (or more) down. The grain is why an
// event a microsecond out is filed once or twice before it runs
// (Engine.Filed counts filings); with 1 ps slots it would start at level 3
// and be re-filed about four times.
//
// # Determinism
//
// Pops must come out in ascending (at, ct, seq) order, byte-identical to
// the heap. Two properties deliver that: levels partition key space so lower
// levels strictly precede higher ones (and a smaller key means an earlier
// tick), and every level-0 slot is kept explicitly sorted by (at, ct, seq)
// at insert — its events share a key but not a tick, so each walks to its
// sorted position. The golden digests and the wheel-vs-heap property tests
// pin this.
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
	wheelBits  = 6
	wheelSlots = 1 << wheelBits // 64
	wheelMask  = wheelSlots - 1
	// wheelGrain is log2 of the level-0 slot width in ticks (picoseconds).
	wheelGrain = 20
	// wheelLevels * wheelBits must cover every slot key: a positive int64
	// tick has 63 bits, its key 63-20 = 43, and bit 42 lives at level
	// 42/6 = 7.
	wheelLevels = 8
)

// idxNone is event.idx outside any structure. While an event is held by
// the wheel its idx is a slot index, level*wheelSlots + slot. (The heap
// uses the same field as its array index; an engine owns exactly one
// scheduler, so the uses never mix.)
const idxNone = -1

type wheelSched struct {
	eng   *Engine
	cur   int64               // slot key the wheel has advanced to (tick >> wheelGrain)
	count int                 // events held, including dead ones
	occ   [wheelLevels]uint64 // per-level bitmap of non-empty slots
	// head and tail link each slot's events, doubly so Reschedule can
	// unlink in O(1). Level-0 slots are sorted by (at, ct, seq), next pop
	// first; higher-level slots are in filing order.
	head [wheelLevels * wheelSlots]*event
	tail [wheelLevels * wheelSlots]*event
	// finger is the event a level-0 insert last walked to, while it is
	// still filed (nil otherwise): a later walk into the same slot whose
	// event sorts after it starts there instead of at the head.
	finger *event
}

func newWheel(eng *Engine) *wheelSched { return &wheelSched{eng: eng} }

func (w *wheelSched) len() int { return w.count }

func (w *wheelSched) push(ev *event) {
	w.count++
	w.insert(ev)
}

// insert files ev by its key: behind or at cur into the current slot,
// ahead of cur into the slot its highest cur-differing bit selects.
func (w *wheelSched) insert(ev *event) {
	w.eng.Filed++
	k := int64(ev.at) >> wheelGrain
	if k <= w.cur {
		w.sortedInsert(int(w.cur&wheelMask), ev)
		return
	}
	lvl := (63 - bits.LeadingZeros64(uint64(k^w.cur))) / wheelBits
	s := int(k>>(uint(lvl)*wheelBits)) & wheelMask
	if lvl == 0 {
		w.sortedInsert(s, ev)
		return
	}
	idx := lvl*wheelSlots + s
	w.occ[lvl] |= 1 << uint(s)
	ev.idx = idx
	ev.next = nil
	ev.prev = w.tail[idx]
	if ev.prev == nil {
		w.head[idx] = ev
	} else {
		ev.prev.next = ev
	}
	w.tail[idx] = ev
}

// sortedInsert links ev into level-0 slot idx at its (at, ct, seq)
// position. Appending at the tail is the common case (fresh events carry
// the largest seq, and a slot's events mostly arrive in time order);
// out-of-order events walk from the head, where the next pops sit, or from
// the finger when it is in this slot and sorts before ev. The finger keeps
// a burst of interleaved ascending runs (many events due within one slot,
// scheduled round-robin) from walking the whole slot each time.
func (w *wheelSched) sortedInsert(idx int, ev *event) {
	ev.idx = idx
	t := w.tail[idx]
	if t == nil {
		ev.prev, ev.next = nil, nil
		w.head[idx], w.tail[idx] = ev, ev
		w.occ[0] |= 1 << uint(idx)
		return
	}
	if evLess(t, ev) {
		ev.prev, ev.next = t, nil
		t.next = ev
		w.tail[idx] = ev
		return
	}
	n := w.head[idx]
	if f := w.finger; f != nil && f.idx == idx && evLess(f, ev) {
		n = f.next // not nil: f sorts before ev, and the tail does not
	}
	for evLess(n, ev) { // terminates: the tail is not less than ev
		n = n.next
	}
	w.finger = ev
	ev.next = n
	ev.prev = n.prev
	if n.prev == nil {
		w.head[idx] = ev
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
	if ev.prev == nil {
		w.head[idx] = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		w.tail[idx] = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if w.head[idx] == nil {
		w.occ[idx/wheelSlots] &^= 1 << uint(idx&wheelMask)
	}
	ev.prev, ev.next = nil, nil
	ev.idx = idxNone
}

func (w *wheelSched) update(ev *event) {
	w.unlink(ev)
	w.insert(ev)
}

// peek returns the current slot's head if it is due at or before limit,
// advancing the wheel while the current slot is empty and the next
// candidate slot starts at or before limit. It returns nil otherwise.
func (w *wheelSched) peek(limit units.Time) *event {
	for {
		if ev := w.head[w.cur&wheelMask]; ev != nil {
			if ev.at > limit {
				return nil
			}
			return ev
		}
		if w.count == 0 || !w.advance(limit) {
			return nil
		}
	}
}

func (w *wheelSched) popDue(limit units.Time) *event {
	ev := w.peek(limit)
	if ev != nil {
		w.unlink(ev)
		w.count--
	}
	return ev
}

// advance moves the wheel one step toward its earliest event; peek calls
// it only while the current slot is empty. It locates the lowest occupied
// slot of the lowest occupied level and — provided that slot's first
// picosecond is at or before limit — either makes it current (level 0:
// cur moves, nothing is re-filed) or empties it, re-filing live events
// one or more levels down and pruning dead ones. It reports whether it
// advanced.
func (w *wheelSched) advance(limit units.Time) bool {
	for lvl := 0; lvl < wheelLevels; lvl++ {
		o := w.occ[lvl]
		if o == 0 {
			continue
		}
		s := bits.TrailingZeros64(o)
		shift := uint(lvl) * wheelBits
		// First key the slot covers: cur's bits above this level, then
		// the slot's own. At the top level the mask covers every key bit,
		// so the window is zero — the whole key space the top level spans.
		window := uint64(w.cur) &^ (uint64(1)<<(shift+wheelBits) - 1)
		start := int64(window | uint64(s)<<shift)
		if units.Time(start<<wheelGrain) > limit {
			return false
		}
		w.cur = start
		if lvl == 0 {
			return true
		}
		idx := lvl*wheelSlots + s
		ev := w.head[idx]
		w.head[idx], w.tail[idx] = nil, nil
		w.occ[lvl] &^= 1 << uint(s)
		for ev != nil {
			next := ev.next
			ev.prev, ev.next = nil, nil
			ev.idx = idxNone
			if ev.dead() {
				// Prune cancelled timers at first touch instead of
				// cascading them down to level 0.
				w.count--
				w.eng.recycle(ev)
			} else {
				w.insert(ev)
			}
			ev = next
		}
		return true
	}
	return false
}

func (w *wheelSched) drain(f func(*event)) {
	w.finger = nil
	for lvl := range w.occ {
		for o := w.occ[lvl]; o != 0; o &= o - 1 {
			idx := lvl*wheelSlots + bits.TrailingZeros64(o)
			for ev := w.head[idx]; ev != nil; {
				next := ev.next
				ev.prev, ev.next = nil, nil
				ev.idx = idxNone
				f(ev)
				ev = next
			}
			w.head[idx], w.tail[idx] = nil, nil
		}
		w.occ[lvl] = 0
	}
	w.count = 0
}

// reset discards anything still held and rewinds the wheel to key zero.
// The bucket arrays are fixed-size fields, so a reset engine reuses them
// as-is — that is the point of Engine.Reset.
func (w *wheelSched) reset() {
	w.drain(func(*event) {})
	w.cur = 0
}
