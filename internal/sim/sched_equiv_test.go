package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"tengig/internal/units"
)

// Wheel-vs-heap equivalence: the two schedulers must be observationally
// identical — same pop order (time, seq), same Pending accounting, same
// Timer semantics — over arbitrary interleavings of Schedule, After, Stop,
// Reschedule, Step, Run, and RunUntil. A lockstep driver applies one op
// stream to two engines that differ only in their scheduler and diffs every
// observable after every op.

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

// apply executes one op, encoded as an opcode plus argument, on both
// engines identically. Delays mix near ticks with multi-level spans so
// events cross wheel level boundaries and collide on identical instants.
func (p *schedPair) apply(op uint8, arg uint32) error {
	a := int64(arg)
	switch op % 6 {
	case 0: // schedule a closure event
		d := units.Time(a % 5000)
		id := len(p.wt)
		we, he := p.wheel, p.heap
		p.wt = append(p.wt, we.After(d, func() { p.wlog = append(p.wlog, fmt.Sprintf("t=%v id=%d", we.Now(), id)) }))
		p.ht = append(p.ht, he.After(d, func() { p.hlog = append(p.hlog, fmt.Sprintf("t=%v id=%d", he.Now(), id)) }))
	case 1: // schedule a far-future event (upper wheel levels)
		d := units.Time(a%7)*137*units.Millisecond + units.Time(a%911)
		id := len(p.wt)
		we, he := p.wheel, p.heap
		p.wt = append(p.wt, we.After(d, func() { p.wlog = append(p.wlog, fmt.Sprintf("t=%v id=%d", we.Now(), id)) }))
		p.ht = append(p.ht, he.After(d, func() { p.hlog = append(p.hlog, fmt.Sprintf("t=%v id=%d", he.Now(), id)) }))
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
