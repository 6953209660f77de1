package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tengig/internal/units"
)

// Wheel-vs-heap equivalence: the two schedulers must be observationally
// identical — same pop order (at, ct, seq), same Pending accounting, same
// Timer semantics — over arbitrary interleavings of Schedule, After,
// InjectCall, Stop, Reschedule, Step, Run, and RunUntil. A lockstep driver
// applies one op stream to two engines that differ only in their scheduler
// and diffs every observable after every op.

// schedPair drives a wheel engine and a heap engine in lockstep.
type schedPair struct {
	wheel, heap *Engine
	wt, ht      []Timer
	wlog, hlog  []string // execution logs: "t=<now> id=<n>"
}

func newSchedPair(seed int64) *schedPair {
	return &schedPair{
		wheel: NewEngine(seed),
		heap:  newHeapEngine(seed),
	}
}

// check compares every observable between the two engines.
func (p *schedPair) check() error {
	if p.wheel.Now() != p.heap.Now() {
		return fmt.Errorf("clocks diverged: wheel %v, heap %v", p.wheel.Now(), p.heap.Now())
	}
	if p.wheel.Pending() != p.heap.Pending() {
		return fmt.Errorf("Pending diverged: wheel %d, heap %d", p.wheel.Pending(), p.heap.Pending())
	}
	if p.wheel.Executed != p.heap.Executed {
		return fmt.Errorf("Executed diverged: wheel %d, heap %d", p.wheel.Executed, p.heap.Executed)
	}
	if p.wheel.HighWater != p.heap.HighWater {
		return fmt.Errorf("HighWater diverged: wheel %d, heap %d", p.wheel.HighWater, p.heap.HighWater)
	}
	if len(p.wlog) != len(p.hlog) {
		return fmt.Errorf("log lengths diverged: wheel %d, heap %d", len(p.wlog), len(p.hlog))
	}
	for i := range p.wlog {
		if p.wlog[i] != p.hlog[i] {
			return fmt.Errorf("pop order diverged at %d: wheel %q, heap %q", i, p.wlog[i], p.hlog[i])
		}
	}
	for i := range p.wt {
		if wp, hp := p.wt[i].Pending(), p.ht[i].Pending(); wp != hp {
			return fmt.Errorf("timer %d Pending diverged: wheel %v, heap %v", i, wp, hp)
		}
	}
	return nil
}

// record returns the callback that logs event id's execution on eng.
func record(eng *Engine, log *[]string, id int) func() {
	return func() { *log = append(*log, fmt.Sprintf("t=%v id=%d", eng.Now(), id)) }
}

// slotEdge returns a tick within two picoseconds of the start of the
// level-0 slot k slots past now's, never before now. k = 64 lands on the
// edge of level 0's span, where events move up to level 1.
func slotEdge(now units.Time, k int64, off int64) units.Time {
	at := (now>>wheelGrain+units.Time(k))<<wheelGrain + units.Time(off) - 2
	if at < now {
		at = now
	}
	return at
}

// slotEdges are the slot offsets slotEdge targets: the next slots, and the
// last slots of level 0's span and the first beyond it.
var slotEdges = [...]int64{1, 2, 63, 64, 65}

// apply executes one op, encoded as an opcode plus argument, on both
// engines identically. Delays mix near ticks with multi-level spans so
// events cross wheel level boundaries and collide on identical instants;
// ops 7 and 8 aim at the edges of level-0 slots, where a slot's first
// picosecond meets a bounded peek's limit.
func (p *schedPair) apply(op uint8, arg uint32) error {
	a := int64(arg)
	switch op % 9 {
	case 0: // schedule a closure event
		d := units.Time(a % 5000)
		id := len(p.wt)
		p.wt = append(p.wt, p.wheel.After(d, record(p.wheel, &p.wlog, id)))
		p.ht = append(p.ht, p.heap.After(d, record(p.heap, &p.hlog, id)))
	case 1: // schedule a far-future event (upper wheel levels)
		d := units.Time(a%7)*137*units.Millisecond + units.Time(a%911)
		id := len(p.wt)
		p.wt = append(p.wt, p.wheel.After(d, record(p.wheel, &p.wlog, id)))
		p.ht = append(p.ht, p.heap.After(d, record(p.heap, &p.hlog, id)))
	case 2: // stop a random timer
		if len(p.wt) == 0 {
			return nil
		}
		i := int(a) % len(p.wt)
		ws, hs := p.wt[i].Stop(), p.ht[i].Stop()
		if ws != hs {
			return fmt.Errorf("Stop(%d) diverged: wheel %v, heap %v", i, ws, hs)
		}
	case 3: // reschedule a random timer, both directions in time
		if len(p.wt) == 0 {
			return nil
		}
		i := int(a) % len(p.wt)
		at := p.wheel.Now() + units.Time(a%3)*997*units.Microsecond + units.Time(a%53)
		wr, hr := p.wt[i].Reschedule(at), p.ht[i].Reschedule(at)
		if wr != hr {
			return fmt.Errorf("Reschedule(%d) diverged: wheel %v, heap %v", i, wr, hr)
		}
	case 4: // bounded advance (deadline peeks exercise the bounded cascade)
		d := units.Time(a % 2000)
		p.wheel.RunUntil(p.wheel.Now() + d)
		p.heap.RunUntil(p.heap.Now() + d)
	case 5: // single step
		ws, hs := p.wheel.Step(), p.heap.Step()
		if ws != hs {
			return fmt.Errorf("Step diverged: wheel %v, heap %v", ws, hs)
		}
	case 6: // inject with a creation time at or before now, as a pdes shard does
		now := p.wheel.Now()
		ct := now - units.Time(a%3)*units.Time(a%4001)
		if ct < 0 {
			ct = 0
		}
		at := now + 1 + units.Time(a%7)*units.Time(a%300007)
		id := len(p.wt)
		wf, hf := record(p.wheel, &p.wlog, id), record(p.heap, &p.hlog, id)
		call := func(f any) { f.(func())() }
		p.wt = append(p.wt, p.wheel.InjectCall(at, ct, call, wf))
		p.ht = append(p.ht, p.heap.InjectCall(at, ct, call, hf))
	case 7: // schedule at a level-0 slot edge
		at := slotEdge(p.wheel.Now(), slotEdges[a%5], a/5%5)
		id := len(p.wt)
		p.wt = append(p.wt, p.wheel.Schedule(at, record(p.wheel, &p.wlog, id)))
		p.ht = append(p.ht, p.heap.Schedule(at, record(p.heap, &p.hlog, id)))
	case 8: // run until a level-0 slot edge (a peek limit beside a slot start)
		at := slotEdge(p.wheel.Now(), slotEdges[a%5], a/5%5)
		p.wheel.RunUntil(at)
		p.heap.RunUntil(at)
	}
	return p.check()
}

// drain runs both engines to quiescence and does a final comparison.
func (p *schedPair) drain() error {
	p.wheel.Run()
	p.heap.Run()
	if err := p.check(); err != nil {
		return err
	}
	if p.wheel.Pending() != 0 {
		return fmt.Errorf("events left pending after Run: %d", p.wheel.Pending())
	}
	return nil
}

// TestSchedEquivalenceProperty is the randomized lockstep property test:
// identical op streams drive identical observables on both schedulers.
func TestSchedEquivalenceProperty(t *testing.T) {
	f := func(seed int64, ops []uint32) bool {
		p := newSchedPair(seed)
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
// and bounded advance optimize, in lockstep with the heap.
func TestSchedEquivalenceChurn(t *testing.T) {
	p := newSchedPair(3)
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
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		p := newSchedPair(seed)
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
