package sim

import "tengig/internal/units"

// heapSched is the binary min-heap scheduler: the test oracle the timing
// wheel runs against in lockstep (sched_equiv_test.go). Its sift loops are
// classic and easy to audit, and because (at, ct, seq) is a total order —
// seq is unique — its pop sequence is simply sorted order, so the heap's
// internal layout cannot affect simulation results.
type heapSched struct {
	pq []*event
}

// newHeapEngine is NewEngine on the heap oracle instead of the wheel.
func newHeapEngine(seed int64) *Engine {
	e := NewEngine(seed)
	e.sched = &heapSched{}
	return e
}

// schedulers names the shipped wheel and the heap oracle, for tests that
// must hold on both.
var schedulers = []struct {
	name      string
	newEngine func(seed int64) *Engine
}{
	{"wheel", NewEngine},
	{"heap", newHeapEngine},
}

func (h *heapSched) len() int { return len(h.pq) }

// push appends ev and restores the heap property.
func (h *heapSched) push(ev *event) {
	ev.idx = len(h.pq)
	h.pq = append(h.pq, ev)
	h.siftUp(ev.idx)
}

// peek returns the root if it is due at or before limit.
func (h *heapSched) peek(limit units.Time) *event {
	if len(h.pq) == 0 || h.pq[0].at > limit {
		return nil
	}
	return h.pq[0]
}

// popDue is peek, then pop: the oracle keeps the two steps the wheel fuses.
func (h *heapSched) popDue(limit units.Time) *event {
	if h.peek(limit) == nil {
		return nil
	}
	return h.pop()
}

// pop removes and returns the earliest event.
func (h *heapSched) pop() *event {
	pq := h.pq
	n := len(pq) - 1
	if n < 0 {
		return nil
	}
	root := pq[0]
	last := pq[n]
	pq[n] = nil
	h.pq = pq[:n]
	root.idx = -1
	if n > 0 {
		pq[0] = last
		last.idx = 0
		h.siftDown(0)
	}
	return root
}

// update restores the heap property after the event changed its key
// (Reschedule).
func (h *heapSched) update(ev *event) {
	if !h.siftDown(ev.idx) {
		h.siftUp(ev.idx)
	}
}

// drain hands every queued event to f and empties the heap.
func (h *heapSched) drain(f func(*event)) {
	for i, ev := range h.pq {
		h.pq[i] = nil
		ev.idx = -1
		f(ev)
	}
	h.pq = h.pq[:0]
}

// reset empties the heap and releases a grown backing array, so an engine
// reused across runs does not pin the peak-watermark queue for the whole
// process. Small arrays are kept — reallocating those would defeat reuse.
func (h *heapSched) reset() {
	for i := range h.pq {
		h.pq[i] = nil
	}
	if cap(h.pq) > 1024 {
		h.pq = nil
	} else {
		h.pq = h.pq[:0]
	}
}

// siftUp moves the event at index i toward the root, hole-insertion style:
// ancestors shift down and the event is placed once.
func (h *heapSched) siftUp(i int) {
	pq := h.pq
	ev := pq[i]
	for i > 0 {
		parent := (i - 1) / 2
		p := pq[parent]
		if !evLess(ev, p) {
			break
		}
		pq[i] = p
		p.idx = i
		i = parent
	}
	pq[i] = ev
	ev.idx = i
}

// siftDown moves the event at index i0 toward the leaves, reporting whether
// it moved.
func (h *heapSched) siftDown(i0 int) bool {
	pq := h.pq
	n := len(pq)
	i := i0
	ev := pq[i]
	for {
		l := 2*i + 1
		if l >= n || l < 0 { // l < 0 guards int overflow
			break
		}
		child, c := l, pq[l]
		if r := l + 1; r < n {
			if cr := pq[r]; evLess(cr, c) {
				child, c = r, cr
			}
		}
		if !evLess(c, ev) {
			break
		}
		pq[i] = c
		c.idx = i
		i = child
	}
	pq[i] = ev
	ev.idx = i
	return i > i0
}
