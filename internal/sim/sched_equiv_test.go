package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tengig/internal/units"
)

// The lockstep oracle: a model engine predicts every observable of an
// Engine — pop order, clock, Pending, Executed, HighWater, each Timer's
// Pending, and what Stop, Reschedule, Step and NextEventAt return — over
// arbitrary interleavings of Schedule, After, InjectCall, Stop, Reschedule,
// Step, Run, RunUntil, NextEventAt and AdvanceTo. The model stamps each event's (at, ct, seq) key exactly
// as the engine does and pops from a heap of those keys; the driver applies
// every op to both and diffs the observables after each one.

// model is the oracle's engine: a clock, the engine's counters, and a heap
// of the events it has stamped, indexed by timer id. An executed or
// stopped event is dead (nil fn), as on the engine.
type model struct {
	q         heapSched
	now       units.Time
	seq       uint64
	live      int
	executed  uint64
	highWater int
	evs       []*event
	log       []string
}

// add stamps a live event due at at, created at ct, as Engine.newEvent
// does; its id is the next timer index.
func (m *model) add(at, ct units.Time) {
	ev := &event{at: at, ct: ct, seq: m.seq, fn: callFunc, arg: len(m.evs)}
	m.seq++
	m.live++
	m.highWater = max(m.highWater, m.live)
	m.evs = append(m.evs, ev)
	m.q.insert(ev)
}

// stop is Timer.Stop.
func (m *model) stop(id int) bool {
	ev := m.evs[id]
	if ev.dead() {
		return false
	}
	ev.fn = nil
	m.live--
	return true
}

// reschedule is Timer.Reschedule: a fresh (at, ct, seq) key in place.
func (m *model) reschedule(id int, at units.Time) bool {
	ev := m.evs[id]
	if ev.dead() {
		return false
	}
	ev.at, ev.ct, ev.seq = at, m.now, m.seq
	m.seq++
	m.q.update(ev)
	return true
}

// exec pops the earliest live event due at or before limit and runs it,
// reporting whether there was one.
func (m *model) exec(limit units.Time) bool {
	for {
		ev := m.q.popDue(limit)
		if ev == nil {
			return false
		}
		if ev.dead() {
			continue
		}
		ev.fn = nil
		m.now = ev.at
		m.live--
		m.executed++
		m.log = append(m.log, fmt.Sprintf("t=%v id=%d", m.now, ev.arg))
		return true
	}
}

// next is Engine.NextEventAt: the earliest live event's time. Dead roots
// are popped on the way.
func (m *model) next() (units.Time, bool) {
	for {
		ev := m.q.peek(maxTime)
		if ev == nil {
			return 0, false
		}
		if !ev.dead() {
			return ev.at, true
		}
		m.q.popDue(maxTime)
	}
}

// runUntil is Engine.RunUntil.
func (m *model) runUntil(deadline units.Time) {
	for m.exec(deadline) {
	}
	m.now = max(m.now, deadline)
}

// lockstep drives an engine and its model.
type lockstep struct {
	eng    *Engine
	timers []Timer
	log    []string // the engine's execution log: "t=<now> id=<n>"
	logged int      // log entries check has compared: both logs only grow
	m      model
}

func newLockstep(seed int64) *lockstep { return &lockstep{eng: NewEngine(seed)} }

// check compares every observable of the engine with the model's.
func (p *lockstep) check() error {
	e, m := p.eng, &p.m
	if e.Now() != m.now {
		return fmt.Errorf("clocks diverged: engine %v, model %v", e.Now(), m.now)
	}
	if e.Pending() != m.live {
		return fmt.Errorf("Pending diverged: engine %d, model %d", e.Pending(), m.live)
	}
	if e.Executed != m.executed {
		return fmt.Errorf("Executed diverged: engine %d, model %d", e.Executed, m.executed)
	}
	if e.HighWater != m.highWater {
		return fmt.Errorf("HighWater diverged: engine %d, model %d", e.HighWater, m.highWater)
	}
	if len(p.log) != len(m.log) {
		return fmt.Errorf("log lengths diverged: engine %d, model %d", len(p.log), len(m.log))
	}
	for i := p.logged; i < len(p.log); i++ {
		if p.log[i] != m.log[i] {
			return fmt.Errorf("pop order diverged at %d: engine %q, model %q", i, p.log[i], m.log[i])
		}
	}
	p.logged = len(p.log)
	for i, tm := range p.timers {
		if ep, mp := tm.Pending(), !m.evs[i].dead(); ep != mp {
			return fmt.Errorf("timer %d Pending diverged: engine %v, model %v", i, ep, mp)
		}
	}
	return nil
}

// record returns the callback that logs event id's execution on the
// engine.
func (p *lockstep) record(id int) func() {
	return func() { p.log = append(p.log, fmt.Sprintf("t=%v id=%d", p.eng.Now(), id)) }
}

// schedule arms a closure event at absolute time at on both sides.
func (p *lockstep) schedule(at units.Time) {
	p.timers = append(p.timers, p.eng.Schedule(at, p.record(len(p.timers))))
	p.m.add(at, p.m.now)
}

// slotEdges map a slot key to the key of a slot whose first picosecond
// ops 7 and 8 aim at: the next slots, the last slots of level 0's circular
// window and the first beyond it, and the next two level-1 slot starts
// (aligned to the window's width, so they fall anywhere in the window or
// just past it, wherever the wheel's position sits).
var slotEdges = [...]func(k int64) int64{
	func(k int64) int64 { return k + 1 },
	func(k int64) int64 { return k + 2 },
	func(k int64) int64 { return k + windowSlots - 2 },
	func(k int64) int64 { return k + windowSlots - 1 },
	func(k int64) int64 { return k + windowSlots },
	func(k int64) int64 { return k + windowSlots + 1 },
	func(k int64) int64 { return (k>>windowBits + 1) << windowBits },
	func(k int64) int64 { return (k>>windowBits + 2) << windowBits },
}

// slotEdge returns a tick within two picoseconds of the start of the slot
// edge selects from now's, never before now.
func slotEdge(now units.Time, edge int, off int64) units.Time {
	k := slotEdges[edge](int64(now) >> wheelGrain)
	return max(now, units.Time(k<<wheelGrain+off-2))
}

// apply executes one op, encoded as an opcode plus argument, on the
// engine and the model. Delays mix near ticks with multi-level spans so
// events cross wheel level boundaries and collide on identical instants;
// ops 7 and 8 aim at the edges of level-0 slots and of the window, where
// a slot's first picosecond meets a bounded peek's limit and a level-1
// slot overlaps the window. Ops 9 and 10 are the peeks a parallel-DES run
// depends on: every shard reports NextEventAt after each window, and every
// subset compile skips a quiescent handshake with AdvanceTo.
func (p *lockstep) apply(op uint8, arg uint32) error {
	a := int64(arg)
	m := &p.m
	switch op % 11 {
	case 0: // schedule a closure event
		p.schedule(p.eng.Now() + units.Time(a%5000))
	case 1: // schedule a far-future event (upper wheel levels)
		p.schedule(p.eng.Now() + units.Time(a%7)*137*units.Millisecond + units.Time(a%911))
	case 2: // stop a random timer
		if len(p.timers) == 0 {
			return nil
		}
		i := int(a) % len(p.timers)
		if es, ms := p.timers[i].Stop(), m.stop(i); es != ms {
			return fmt.Errorf("Stop(%d) diverged: engine %v, model %v", i, es, ms)
		}
	case 3: // reschedule a random timer, both directions in time
		if len(p.timers) == 0 {
			return nil
		}
		i := int(a) % len(p.timers)
		at := p.eng.Now() + units.Time(a%3)*997*units.Microsecond + units.Time(a%53)
		if er, mr := p.timers[i].Reschedule(at), m.reschedule(i, at); er != mr {
			return fmt.Errorf("Reschedule(%d) diverged: engine %v, model %v", i, er, mr)
		}
	case 4: // bounded advance (deadline peeks exercise the bounded cascade)
		d := p.eng.Now() + units.Time(a%2000)
		p.eng.RunUntil(d)
		m.runUntil(d)
	case 5: // single step
		if es, ms := p.eng.Step(), m.exec(maxTime); es != ms {
			return fmt.Errorf("Step diverged: engine %v, model %v", es, ms)
		}
	case 6: // inject with a creation time at or before now, as a pdes shard does
		now := p.eng.Now()
		ct := max(0, now-units.Time(a%3)*units.Time(a%4001))
		at := now + 1 + units.Time(a%7)*units.Time(a%300007)
		f := p.record(len(p.timers))
		p.timers = append(p.timers, p.eng.InjectCall(at, ct, func(f any) { f.(func())() }, f))
		m.add(at, ct)
	case 7: // schedule at a slot edge
		p.schedule(slotEdge(p.eng.Now(), int(a%int64(len(slotEdges))), a/int64(len(slotEdges))%5))
	case 8: // run until a slot edge (a peek limit beside a slot start)
		d := slotEdge(p.eng.Now(), int(a%int64(len(slotEdges))), a/int64(len(slotEdges))%5)
		p.eng.RunUntil(d)
		m.runUntil(d)
	case 9: // peek at the earliest live event
		et, eok := p.eng.NextEventAt()
		if mt, mok := m.next(); et != mt || eok != mok {
			return fmt.Errorf("NextEventAt diverged: engine %v, %v; model %v, %v", et, eok, mt, mok)
		}
	case 10: // advance the clock short of the earliest live event
		now := p.eng.Now()
		t := now + units.Time(a%7)*137*units.Millisecond + units.Time(a%911)
		if next, ok := m.next(); ok {
			if next == now {
				break // nothing lies short of it
			}
			// Just past now, or just short of the event.
			off := units.Time(a) % (next - now)
			if t = now + off; a&1 == 1 {
				t = next - 1 - off
			}
		}
		p.eng.AdvanceTo(t)
		m.now = t
	}
	return p.check()
}

// drain runs the engine and the model to quiescence and does a final
// comparison.
func (p *lockstep) drain() error {
	p.eng.Run()
	for p.m.exec(maxTime) {
	}
	if err := p.check(); err != nil {
		return err
	}
	if p.eng.Pending() != 0 {
		return fmt.Errorf("events left pending after Run: %d", p.eng.Pending())
	}
	return nil
}

// TestSchedEquivalenceProperty is the randomized lockstep property test:
// the model predicts every observable of random op streams.
func TestSchedEquivalenceProperty(t *testing.T) {
	f := func(seed int64, ops []uint32) bool {
		p := newLockstep(seed)
		for _, enc := range ops {
			if err := p.apply(uint8(enc>>24), enc&0xffffff); err != nil {
				t.Log(err)
				return false
			}
		}
		if err := p.drain(); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSchedEquivalenceChurn drives the RTO-shaped workload — arm far out,
// usually cancel, occasionally fire — that the wheel's dead-event pruning
// and bounded advance optimize, in lockstep with the model.
func TestSchedEquivalenceChurn(t *testing.T) {
	p := newLockstep(3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4000; i++ {
		if err := p.apply(uint8(rng.Intn(256)), rng.Uint32()); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	if err := p.drain(); err != nil {
		t.Fatal(err)
	}
}

// FuzzSchedEquivalence feeds arbitrary op streams through the lockstep
// driver; go test runs the seed corpus, `go test -fuzz=FuzzSchedEquivalence
// ./internal/sim` explores further.
func FuzzSchedEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{0x00, 0x10, 0x42, 0x81, 0xc3, 0x24, 0x65, 0xa6})
	f.Add(int64(42), []byte{0x01, 0xff, 0x02, 0x03, 0x04, 0x05, 0x00, 0x00, 0xfe, 0x11})
	f.Add(int64(7), []byte{0x05, 0x05, 0x05, 0x00, 0x01, 0x02, 0x03, 0x04})
	// Injections behind now, edge schedules and edge deadlines (ops 6-8).
	f.Add(int64(9), []byte{
		0x07, 0x03, 0x00, 0x00, 0x00, 0x07, 0x08, 0x00, 0x00, 0x00,
		0x06, 0x11, 0x22, 0x03, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
		0x07, 0x13, 0x00, 0x00, 0x00, 0x08, 0x03, 0x00, 0x00, 0x00,
		0x06, 0x7d, 0x01, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
	})
	f.Add(int64(11), []byte{
		0x06, 0x2b, 0x49, 0x00, 0x00, 0x07, 0x02, 0x00, 0x00, 0x00,
		0x07, 0x0e, 0x00, 0x00, 0x00, 0x08, 0x02, 0x00, 0x00, 0x00,
		0x03, 0x01, 0x00, 0x00, 0x00, 0x06, 0x05, 0x30, 0x00, 0x00,
		0x08, 0x0c, 0x00, 0x00, 0x00, 0x02, 0x04, 0x00, 0x00, 0x00,
	})
	// A level-1 slot that overlaps the window: an event filed above the
	// window at key 1024, then (after a step moves the wheel to key 2) one
	// filed in the window at key 1025, which must pop second (ops 7, 7, 5,
	// 7).
	f.Add(int64(13), []byte{
		0x07, 0x14, 0x00, 0x00, 0x00, 0x07, 0x11, 0x00, 0x00, 0x00,
		0x05, 0x00, 0x00, 0x00, 0x00, 0x07, 0x13, 0x00, 0x00, 0x00,
	})
	// Two events due at one instant, the later-stamped one created
	// earlier: ct, not seq, orders them (ops 4, 0, 6).
	f.Add(int64(17), []byte{
		0x04, 0xe8, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
		0x06, 0x0e, 0x00, 0x00, 0x00,
	})
	// Two far events in one level-2 slot, both cancelled, then a live one
	// in a later level-2 slot: the peek must prune the cancelled slot and
	// report the live event, and the clock may advance to just short of it
	// (ops 1, 1, 2, 2, 1, 9, 10).
	f.Add(int64(19), []byte{
		0x01, 0x01, 0x00, 0x00, 0x00, 0x01, 0x08, 0x00, 0x00, 0x00,
		0x02, 0x00, 0x00, 0x00, 0x00, 0x02, 0x01, 0x00, 0x00, 0x00,
		0x01, 0x02, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
		0x0a, 0x01, 0x00, 0x00, 0x00,
	})
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		p := newLockstep(seed)
		for i := 0; i+4 < len(raw); i += 5 {
			arg := uint32(raw[i+1]) | uint32(raw[i+2])<<8 | uint32(raw[i+3])<<16 | uint32(raw[i+4])<<24
			if err := p.apply(raw[i], arg%0xffffff); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.drain(); err != nil {
			t.Fatal(err)
		}
	})
}
