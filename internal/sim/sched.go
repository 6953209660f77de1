package sim

import (
	"math"

	"tengig/internal/units"
)

// maxTime is the "no limit" bound for scheduler peeks.
const maxTime = units.Time(math.MaxInt64)

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

// scheduler is the event queue behind an Engine. The timing wheel (wheel.go)
// is the only implementation that ships; the binary heap in heap_test.go is
// the test oracle the wheel runs against in lockstep. Implementations must
// pop events in ascending (at, ct, seq) order — the total order that makes
// simulations deterministic — but are free to organize storage however they
// like. Cancellation is lazy: dead events stay queued until popped (or, for
// the wheel, until a cascade prunes them), so schedulers must tolerate dead
// events anywhere.
type scheduler interface {
	// push inserts a new event (at, seq already stamped).
	push(ev *event)
	// peek returns the earliest event if its time is <= limit, nil
	// otherwise (or when empty). peek may reorganize internal storage up
	// to limit (the wheel advances and cascades), but must not advance
	// past the earliest event and must never run callbacks. The wheel's
	// storage is coarser than its clock: a bounded peek may drain a
	// level-0 slot that straddles limit, leaving events due after limit
	// on the ready list, where a later peek or pop still finds them in
	// order.
	peek(limit units.Time) *event
	// pop removes and returns the earliest event, nil when empty.
	pop() *event
	// update re-keys ev after its (at, seq) changed in place (Reschedule).
	update(ev *event)
	// len reports how many events are held, including dead ones.
	len() int
	// drain calls f for every held event, in no particular order, and
	// empties the scheduler.
	drain(f func(*event))
	// reset empties the scheduler and releases any monotonically-grown
	// backing storage (fixed-size bucket arrays may be kept).
	reset()
}
