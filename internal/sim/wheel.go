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
// at most wheelLevels-1 times before it reaches the ready list, so the total
// work per event is O(1) amortized — against the heap's O(log n) sift per
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
// Within one level every occupied slot is strictly ahead of cur's position,
// so the earliest pending event is always in the lowest occupied level's
// lowest occupied slot (one TrailingZeros64 per level finds it). Advancing
// into a higher-level slot re-files its events one level (or more) down;
// advancing into a level-0 slot moves its events — which share a key but
// not a tick — onto the ready list through the sorted insert. An event due
// within the current key goes straight to the ready list. The grain is why
// an event a microsecond out is filed at level 0 or 1 and reaches the ready
// list after about two filings (Engine.Filed counts them); with 1 ps slots
// it would start at level 3 and be re-filed about four times.
//
// # Determinism
//
// Pops must come out in ascending (at, ct, seq) order, byte-identical to
// the heap. Two properties deliver that: levels partition key space so lower
// levels strictly precede higher ones (and a smaller key means an earlier
// tick), and the ready list is kept explicitly sorted by (at, ct, seq) —
// every event, whether drained from a level-0 slot or scheduled within the
// current key, walks to its sorted position. The golden digests and the
// wheel-vs-heap property tests pin this.
//
// # Bounded advance and lazy cancellation
//
// peek(limit) advances the wheel only while the next candidate slot's first
// picosecond is at or before limit, so RunUntil with a near deadline never
// cascades far-future timers (and never pays to re-file them). A level-0
// slot straddling limit still drains whole, so the ready list may hold
// events due after limit; peek reports them only once limit reaches them.
// Because the engine's clock may sit behind cur after such a peek, a later
// Schedule can target a key the wheel has already passed; those events go
// straight onto the ready list at their sorted position. Cancelled (dead)
// events are pruned whenever a cascade touches them instead of riding the
// wheel to the ready list — RTO-style timers that are armed far out and
// almost always cancelled cost one insert and one prune, never a full
// cascade.
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

// Values of event.idx while an event is held by the wheel: a slot index
// (level*wheelSlots + slot) when on the wheel proper, idxReady on the
// sorted ready list, idxNone outside any structure. (The heap uses the same
// field as its array index; an engine owns exactly one scheduler, so the
// uses never mix.)
const (
	idxNone  = -1
	idxReady = -2
)

type wheelSched struct {
	eng   *Engine
	cur   int64               // slot key the wheel has advanced to (tick >> wheelGrain)
	count int                 // events held, including dead ones
	occ   [wheelLevels]uint64 // per-level bitmap of non-empty slots
	head  [wheelLevels * wheelSlots]*event
	tail  [wheelLevels * wheelSlots]*event
	// ready holds events whose key is at or behind cur, sorted by
	// (at, ct, seq), next pop first. Doubly linked so Reschedule can
	// unlink in O(1).
	rdHead, rdTail *event
	// finger is the event readyInsert last walked to, while it is still
	// on the ready list (nil otherwise): a later walk whose event sorts
	// after it starts there instead of at the head.
	finger *event
}

func newWheel(eng *Engine) *wheelSched { return &wheelSched{eng: eng} }

func (w *wheelSched) len() int { return w.count }

func (w *wheelSched) push(ev *event) {
	w.count++
	w.insert(ev)
}

// insert files ev by its key: behind or at cur onto the ready list, ahead
// of cur into the slot its highest cur-differing bit selects.
func (w *wheelSched) insert(ev *event) {
	k := int64(ev.at) >> wheelGrain
	if k <= w.cur {
		w.readyInsert(ev)
		return
	}
	w.eng.Filed++
	lvl := (63 - bits.LeadingZeros64(uint64(k^w.cur))) / wheelBits
	s := int(k>>(uint(lvl)*wheelBits)) & wheelMask
	idx := lvl*wheelSlots + s
	ev.idx = idx
	ev.next = nil
	ev.prev = w.tail[idx]
	if ev.prev == nil {
		w.head[idx] = ev
	} else {
		ev.prev.next = ev
	}
	w.tail[idx] = ev
	w.occ[lvl] |= 1 << uint(s)
}

// readyInsert links ev into the ready list at its (at, ct, seq) position.
// Appending at the tail is the common case (a slot's events mostly arrive
// in time order, and fresh events carry the largest seq); out-of-order
// events walk from the head, where the next pops sit, or from the finger
// when they sort after it. The ready list holds one slot's events plus
// those scheduled into the current slot, so walks are short; the finger
// keeps a burst of interleaved ascending runs (many events due within one
// slot, scheduled round-robin) from walking the whole list each time.
func (w *wheelSched) readyInsert(ev *event) {
	w.eng.Filed++
	ev.idx = idxReady
	if w.rdTail == nil {
		ev.prev, ev.next = nil, nil
		w.rdHead, w.rdTail = ev, ev
		return
	}
	if evLess(w.rdTail, ev) {
		ev.prev, ev.next = w.rdTail, nil
		w.rdTail.next = ev
		w.rdTail = ev
		return
	}
	n := w.rdHead
	if f := w.finger; f != nil && evLess(f, ev) {
		n = f.next // not nil: f sorts before ev, and the tail does not
	}
	for evLess(n, ev) { // terminates: the tail is not less than ev
		n = n.next
	}
	w.finger = ev
	ev.next = n
	ev.prev = n.prev
	if n.prev == nil {
		w.rdHead = ev
	} else {
		n.prev.next = ev
	}
	n.prev = ev
}

// unlink removes ev from whichever list holds it.
func (w *wheelSched) unlink(ev *event) {
	if ev.idx == idxReady {
		if ev == w.finger {
			w.finger = nil
		}
		if ev.prev == nil {
			w.rdHead = ev.next
		} else {
			ev.prev.next = ev.next
		}
		if ev.next == nil {
			w.rdTail = ev.prev
		} else {
			ev.next.prev = ev.prev
		}
	} else {
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
	}
	ev.prev, ev.next = nil, nil
	ev.idx = idxNone
}

func (w *wheelSched) update(ev *event) {
	w.unlink(ev)
	w.insert(ev)
}

func (w *wheelSched) peek(limit units.Time) *event {
	for {
		if ev := w.rdHead; ev != nil {
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

// advance moves the wheel one step toward its earliest event: it locates
// the lowest occupied slot of the lowest occupied level, and — provided
// that slot's first picosecond is at or before limit — empties it,
// re-filing live events one or more levels down (a level-0 slot, and any
// event whose key is the slot's own, drains onto the sorted ready list)
// and pruning dead ones. It reports whether it advanced.
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
		idx := lvl*wheelSlots + s
		ev := w.head[idx]
		w.head[idx], w.tail[idx] = nil, nil
		w.occ[lvl] &^= 1 << uint(s)
		if start > w.cur {
			w.cur = start
		}
		for ev != nil {
			next := ev.next
			ev.prev, ev.next = nil, nil
			ev.idx = idxNone
			if ev.dead() {
				// Prune cancelled timers at first touch instead of
				// cascading them to the ready list.
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

func (w *wheelSched) pop() *event {
	ev := w.rdHead
	if ev == nil {
		if w.peek(maxTime) == nil {
			return nil
		}
		ev = w.rdHead
	}
	if ev == w.finger {
		w.finger = nil
	}
	w.rdHead = ev.next
	if ev.next == nil {
		w.rdTail = nil
	} else {
		ev.next.prev = nil
	}
	ev.prev, ev.next = nil, nil
	ev.idx = idxNone
	w.count--
	return ev
}

func (w *wheelSched) drain(f func(*event)) {
	for ev := w.rdHead; ev != nil; {
		next := ev.next
		ev.prev, ev.next = nil, nil
		ev.idx = idxNone
		f(ev)
		ev = next
	}
	w.rdHead, w.rdTail, w.finger = nil, nil, nil
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
