// Package sim provides the discrete-event simulation kernel used by every
// substrate in this repository: an event scheduler with deterministic
// ordering and FIFO queueing resources. The engine draws no randomness;
// components that need it (netem) own seeded per-link streams.
//
// All simulated components share one *Engine. Components schedule callbacks
// at absolute or relative simulated times; Run drains the event queue in
// (time, insertion-order) order, so simulations are fully deterministic for a
// given seed and construction order.
//
// # Event queue
//
// The event queue is a hierarchical timing wheel (wheel.go) with O(1)
// schedule, cancel, and reschedule. Its level 0 is a circular window of
// 1024 slots of 2^18 ps (about 268 µs) that moves with the wheel, and its
// current slot is the ready list, so an event due inside the window is
// filed exactly once — 1.02-1.16 filings per executed event on the Figure 3
// points and the shipped topologies (Engine.Filed counts them) — and
// running it costs one scheduler pass (popDue). The package tests keep a
// binary heap of the (time, creation time, seq) keys the engine stamps as
// the wheel's model: a lockstep oracle predicts every pop, clock reading
// and counter from it.
//
// # Allocation discipline
//
// The scheduler is the innermost loop of every experiment, so it recycles
// event structs on an engine-local free list (the engine is single-goroutine
// by contract, so no sync.Pool is needed), returns Timer handles by value,
// and offers closure-free scheduling (ScheduleCall/AfterCall) that carries a
// single argument to a pre-bound callback. Steady-state scheduling allocates
// nothing; see bench_kernel_test.go at the repository root. The free list is
// capped (maxFreeEvents) and Engine.Reset releases grown backing storage, so
// a long sweep does not hold its peak-watermark memory for the whole
// process.
package sim

import (
	"fmt"
	"math"

	"tengig/internal/units"
)

// event is a scheduled callback, fn(arg). fn is set while the event is
// live; nil marks a cancelled event awaiting recycling.
type event struct {
	at   units.Time
	ct   units.Time // creation time: when the event was scheduled (see evLess)
	seq  uint64     // tie-break: FIFO among events at the same (at, ct)
	fn   func(any)
	arg  any
	idx  int    // wheel slot index (the test model's heap index); idxNone when out
	gen  uint64 // bumped on recycle so stale Timers cannot touch a reused event
	next *event // free-list link while recycled; wheel list link while queued
	prev *event // wheel list back link
}

// dead reports whether the event has been cancelled (or already consumed).
func (ev *event) dead() bool { return ev.fn == nil }

// evLess orders events by (time, creation time, seq); seq is unique, so the
// order is total. For events scheduled by this engine, ct never decreases
// while seq increases, so (at, ct, seq) collapses to the historical (at, seq)
// FIFO order and nothing observable changes. The ct term exists for
// cross-engine injection (Engine.InjectCall): a parallel-DES shard receiving
// a remote packet stamps the event with the sending shard's creation time,
// which slots it among same-instant local events exactly where the
// single-engine run would have created it — seq alone cannot, because the
// injecting engine only learns about the event at a synchronization barrier,
// after later-created local events have already drawn their sequence numbers.
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.ct != b.ct {
		return a.ct < b.ct
	}
	return a.seq < b.seq
}

// maxTime is the "no limit" bound for the wheel's peeks.
const maxTime = units.Time(math.MaxInt64)

// callFunc is the callback of a Schedule/After event: the closure rides in
// arg. A func value is pointer-shaped, so storing it in an interface does
// not allocate.
func callFunc(arg any) { arg.(func())() }

// Timer is a handle to a scheduled event that can be cancelled or
// rescheduled. Timers are values: the zero value is an idle timer (Stop and
// Reschedule report false, Pending reports false), and handles returned by
// Schedule/After may be copied freely. The generation counter makes a stale
// handle — one whose event has fired and been recycled — permanently inert.
type Timer struct {
	eng *Engine
	ev  *event
	gen uint64
}

// live reports whether the handle still references its original, uncancelled
// event.
func (t *Timer) live() bool {
	return t.eng != nil && t.ev != nil && t.ev.gen == t.gen && !t.ev.dead()
}

// Stop cancels the timer if it has not fired yet, reporting whether the
// event was still pending. Cancellation is lazy: the event is marked dead
// and recycled when the wheel next touches it (at pop or at the first
// cascade), so Stop is O(1) instead of an eager removal. Stop always
// detaches the handle (both eng and ev are nilled), so repeated calls are
// safe no-ops.
func (t *Timer) Stop() bool {
	if t == nil {
		return false
	}
	eng, ev := t.eng, t.ev
	t.eng, t.ev = nil, nil
	if eng == nil || ev == nil || ev.gen != t.gen || ev.dead() {
		return false
	}
	ev.fn, ev.arg = nil, nil
	eng.live--
	if eng.ledger != nil {
		eng.ledger.down()
	}
	return true
}

// Pending reports whether the timer is still scheduled.
func (t *Timer) Pending() bool { return t != nil && t.live() }

// Reschedule rearms a still-pending timer in place, moving its event to
// absolute time at without touching the free list. It reports false (and
// does nothing) if the timer already fired or was stopped — callers fall
// back to a fresh Schedule/After in that case. The event draws a fresh
// sequence number, so the resulting pop order is identical to the old
// cancel-then-reschedule sequence.
func (t *Timer) Reschedule(at units.Time) bool {
	if t == nil || !t.live() {
		return false
	}
	eng, ev := t.eng, t.ev
	if at < eng.now {
		panic(fmt.Sprintf("sim: rescheduling into the past: at=%v now=%v", at, eng.now))
	}
	ev.at = at
	ev.ct = eng.now
	ev.seq = eng.seq
	eng.seq++
	eng.sched.update(ev)
	return true
}

// maxFreeEvents caps the engine's event free list. The cap only binds when
// a burst retires far more events than steady state re-arms — without it a
// sweep's worst moment would pin its peak event population in memory for
// the rest of the process. 32768 events (a few MB) is well above the
// high-water mark of the heaviest multi-flow run, so the zero-alloc
// guarantee is unaffected.
const maxFreeEvents = 32768

// Engine is the discrete-event scheduler. It is not safe for concurrent use;
// a simulation runs on a single goroutine (parallelism in this repository
// lives at the experiment level, where independent simulations run in
// parallel under `go test`).
type Engine struct {
	sched     *wheelSched
	now       units.Time
	seq       uint64
	live      int // scheduled, not-cancelled events (the scheduler may also hold dead ones)
	freeEv    *event
	freeN     int // free-list length, kept under maxFreeEvents
	stopped   bool
	maxEvents uint64      // event budget (LimitEvents); 0 = unlimited
	budgetHit bool        // the budget stopped the run (EventBudgetExceeded)
	ledger    *LiveLedger // optional liveness ledger for parallel-DES HighWater reconstruction
	injecting bool        // InjectCall in progress: suppress the ledger's creation delta
	// Executed counts events run; useful for progress assertions in tests.
	Executed uint64
	// Filed counts the scheduler's placements of events: every filing on
	// a timing-wheel slot, including the re-filings of a cascade and the
	// one a Reschedule makes. Filed/Executed is the queue's work per
	// event. Like Executed it is reset by Reset, and it is not part of
	// any telemetry export.
	Filed uint64
	// HighWater is the deepest the live-event population has been — a
	// telemetry counter for spotting runs whose pending-event population
	// explodes.
	HighWater int
}

// NewEngine returns an engine whose clock starts at zero. The engine draws
// no randomness, so seed only labels the run: every random stream in a
// simulation belongs to a component (netem.StreamSeed), which keeps streams
// exact when a topology is split across parallel-DES shards.
func NewEngine(seed int64) *Engine {
	e := &Engine{}
	e.sched = newWheel(e)
	return e
}

// Reset returns the engine to the state NewEngine(seed) would give —
// clock at zero, empty queue, zeroed counters — while
// retaining warmed allocations: the event free list (trimmed to
// maxFreeEvents) and the wheel's slot arrays. Sweeps reuse one
// engine per worker across runs instead of reallocating; results are
// byte-identical to fresh-engine runs because nothing observable survives
// the reset (stale Timer handles are neutralized by the recycle
// generation bump).
func (e *Engine) Reset(seed int64) {
	e.sched.reset()
	e.now = 0
	e.seq = 0
	e.live = 0
	e.stopped = false
	e.maxEvents = 0
	e.budgetHit = false
	e.Executed = 0
	e.Filed = 0
	e.HighWater = 0
	e.ledger = nil
	e.injecting = false
}

// SetLedger attaches (or, with nil, detaches) a liveness ledger. While
// attached, every executed event opens an atom and every creation/cancel
// inside its callback is recorded, so a parallel-DES coordinator can
// reconstruct the single-engine HighWater from the shards' atom sets (see
// ReplayHighWater). Attach costs one predictable branch per schedule/step;
// the nil default keeps the hot path allocation- and ledger-free.
func (e *Engine) SetLedger(l *LiveLedger) { e.ledger = l }

// LimitEvents caps the number of events this run may execute (0 removes the
// cap). When the cap is reached Step reports false as if the queue had
// drained, so driver loops terminate naturally; EventBudgetExceeded
// distinguishes a budget stop from a completed run. The budget is a
// containment device for runaway simulations — a retransmission storm or a
// fault-injection config that never converges — turning an infinite loop
// into a structured, reportable failure.
func (e *Engine) LimitEvents(n uint64) {
	e.maxEvents = n
	e.budgetHit = false
}

// EventBudgetExceeded reports whether the run was stopped by LimitEvents.
func (e *Engine) EventBudgetExceeded() bool { return e.budgetHit }

// Now returns the current simulated time.
func (e *Engine) Now() units.Time { return e.now }

// newEvent takes an event from the free list (or allocates one), stamps it
// with the next sequence number, and hands it to the scheduler.
func (e *Engine) newEvent(at units.Time) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past: at=%v now=%v", at, e.now))
	}
	ev := e.freeEv
	if ev != nil {
		e.freeEv = ev.next
		ev.next = nil
		e.freeN--
	} else {
		ev = &event{}
	}
	ev.at = at
	ev.ct = e.now
	ev.seq = e.seq
	e.seq++
	e.live++
	if e.live > e.HighWater {
		e.HighWater = e.live
	}
	if e.ledger != nil && !e.injecting {
		e.ledger.up()
	}
	return ev
}

// recycle returns a retired event to the free list, bumping its generation
// so stale Timer handles become inert. Beyond maxFreeEvents the event is
// dropped for the GC instead, so a retirement burst cannot pin its
// peak-watermark population forever.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn, ev.arg = nil, nil
	ev.prev = nil
	if e.freeN >= maxFreeEvents {
		ev.next = nil
		return
	}
	ev.next = e.freeEv
	e.freeEv = ev
	e.freeN++
}

// Schedule runs do at absolute simulated time at. Events scheduled for the
// current instant run after the currently-executing event returns. Panics if
// at is in the past.
func (e *Engine) Schedule(at units.Time, do func()) Timer {
	if do == nil {
		panic("sim: scheduling nil closure")
	}
	return e.ScheduleCall(at, callFunc, do)
}

// ScheduleCall runs fn(arg) at absolute simulated time at. It is the
// closure-free twin of Schedule: the callback is a pre-bound function and
// the per-event state rides in arg, so hot paths schedule without
// allocating. Pass pointer-shaped args — boxing a large integer into the
// interface would itself allocate.
func (e *Engine) ScheduleCall(at units.Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	ev := e.newEvent(at)
	ev.fn = fn
	ev.arg = arg
	e.sched.insert(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// InjectCall schedules fn(arg) at absolute time at with an explicit creation
// timestamp ct, on behalf of another engine. It exists for conservative
// parallel DES: when a packet crosses a shard boundary, the receiving shard
// learns about it at a synchronization barrier — strictly after the sending
// shard's wireDone callback would have scheduled the local delivery — so a
// plain ScheduleCall would stamp ct with the injection instant and sort the
// event after same-instant local work the single-engine run would have run
// later. Carrying the sender-side ct restores the single-engine (at, ct, seq)
// position. The lookahead contract makes this safe: at must be strictly in
// the future (the barrier window guarantees it), and ct can never exceed at
// (creation precedes delivery by at least the link propagation delay).
//
// The injected event counts toward live/Executed like any other, but does
// NOT record a creation in the attached LiveLedger: the sending shard already
// recorded it (see LiveLedger.NoteCreate), and double-counting would skew the
// reconstructed HighWater.
func (e *Engine) InjectCall(at, ct units.Time, fn func(any), arg any) Timer {
	if fn == nil {
		panic("sim: injecting nil callback")
	}
	if at <= e.now {
		panic(fmt.Sprintf("sim: injecting at or before now: at=%v now=%v (lookahead violated)", at, e.now))
	}
	if ct > at {
		panic(fmt.Sprintf("sim: injected creation time after delivery: ct=%v at=%v", ct, at))
	}
	e.injecting = true
	ev := e.newEvent(at)
	e.injecting = false
	ev.ct = ct
	ev.fn = fn
	ev.arg = arg
	e.sched.insert(ev)
	return Timer{eng: e, ev: ev, gen: ev.gen}
}

// NextEventAt reports the timestamp of the earliest live event, if any. A
// parallel-DES coordinator uses it to fast-forward over empty barrier
// windows (the null-message equivalent: "I have nothing before t").
func (e *Engine) NextEventAt() (units.Time, bool) {
	ev := e.peekLive(maxTime)
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// AdvanceTo moves the clock forward to t without executing anything. It
// exists for sparse-replica parallel DES: a shard that skips a foreign
// flow's compile-time handshake still advances its clock by the handshake's
// reference duration, keeping every replica's subsequent timestamps aligned
// with the full compile. Skipping work is only sound over quiescent
// stretches, so it panics if any event is due at or before t.
func (e *Engine) AdvanceTo(t units.Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AdvanceTo into the past: t=%v now=%v", t, e.now))
	}
	if ev := e.peekLive(t); ev != nil {
		panic(fmt.Sprintf("sim: AdvanceTo(%v) would skip an event due at %v", t, ev.at))
	}
	e.now = t
}

// After runs do after duration d from the current time.
func (e *Engine) After(d units.Time, do func()) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.Schedule(e.now+d, do)
}

// AfterCall runs fn(arg) after duration d from the current time.
func (e *Engine) AfterCall(d units.Time, fn func(any), arg any) Timer {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.ScheduleCall(e.now+d, fn, arg)
}

// Stop makes Run/RunUntil return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Pending returns the number of scheduled (live) events.
func (e *Engine) Pending() int { return e.live }

// peekLive returns the earliest live event due at or before limit, or nil.
// Dead (cancelled) events encountered at the front are recycled on the way,
// so a deadline peek never mistakes a cancelled timer for pending work.
func (e *Engine) peekLive(limit units.Time) *event {
	for {
		ev := e.sched.peek(limit)
		if ev == nil || !ev.dead() {
			return ev
		}
		e.sched.popDue(limit)
		e.recycle(ev)
	}
}

// popLive removes and returns the earliest live event due at or before
// limit, or nil: one scheduler pass per event. Dead (cancelled) events
// encountered at the front are recycled on the way.
func (e *Engine) popLive(limit units.Time) *event {
	for {
		ev := e.sched.popDue(limit)
		if ev == nil || !ev.dead() {
			return ev
		}
		e.recycle(ev)
	}
}

// exec runs ev, which the scheduler has just released.
func (e *Engine) exec(ev *event) {
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	fn, arg := ev.fn, ev.arg
	e.live--
	if e.ledger != nil {
		e.ledger.beginAtom(ev.at, ev.ct)
	}
	// Recycle before invoking: the event's generation advances first, so
	// a Stop through a stale handle inside the callback itself correctly
	// reports false, and the callback may immediately re-arm.
	e.recycle(ev)
	e.Executed++
	fn(arg)
}

// budgetSpent reports whether LimitEvents' cap has been reached.
func (e *Engine) budgetSpent() bool { return e.maxEvents > 0 && e.Executed >= e.maxEvents }

// Step executes the single earliest event. It reports false if no live
// events remain. Cancelled events encountered on the way are recycled
// without counting as execution.
func (e *Engine) Step() bool {
	if e.budgetSpent() {
		e.budgetHit = true
		return false
	}
	ev := e.popLive(maxTime)
	if ev == nil {
		return false
	}
	e.exec(ev)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline (or until Stop), then
// advances the clock to deadline if it is later than the last event. When
// the LimitEvents cap stops it short of an event due by deadline, it
// returns with EventBudgetExceeded reporting true and the clock at the last
// executed event, as after Stop.
func (e *Engine) RunUntil(deadline units.Time) {
	e.stopped = false
	for !e.stopped {
		if e.budgetSpent() {
			if e.peekLive(deadline) != nil {
				e.budgetHit = true
				return
			}
			break
		}
		// The bounded pop looks through cancelled events at the front, so
		// the deadline check sees the next live event — and, on the wheel,
		// never cascades timers that sit beyond the deadline.
		ev := e.popLive(deadline)
		if ev == nil {
			break
		}
		e.exec(ev)
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}
