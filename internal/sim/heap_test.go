package sim

import "tengig/internal/units"

// scheduler is the event-queue contract the engine's timing wheel keeps
// and the heap model below keeps too, so the lockstep oracle
// (sched_equiv_test.go) can predict the wheel's pops from the heap.
// Events pop in ascending (at, ct, seq) order — the total order that makes
// simulations deterministic — however storage is organized. Cancellation
// is lazy: dead events stay queued until popped (or, on the wheel, until a
// cascade prunes them), so a scheduler must tolerate them anywhere.
type scheduler interface {
	// insert files a new event (at, ct, seq already stamped).
	insert(ev *event)
	// peek returns the earliest event if its time is <= limit, nil
	// otherwise (or when empty). It may reorganize storage up to limit
	// (the wheel advances and cascades), but never past the earliest
	// event. A bounded peek on the wheel may advance onto a level-0 slot
	// that straddles limit, leaving events due after limit in the
	// current slot, where a later peek or popDue still finds them in
	// order.
	peek(limit units.Time) *event
	// popDue removes and returns the earliest event if its time is <=
	// limit, nil otherwise, reorganizing storage exactly as peek does.
	popDue(limit units.Time) *event
	// update re-keys ev after its (at, ct, seq) changed in place
	// (Reschedule).
	update(ev *event)
}

var (
	_ scheduler = (*wheelSched)(nil)
	_ scheduler = (*heapSched)(nil)
)

// schedulers names the wheel and the heap model, for properties that must
// hold on both: the oracle is only as good as its model.
var schedulers = []struct {
	name string
	new  func() scheduler
}{
	{"wheel", func() scheduler { return NewEngine(1).sched }},
	{"heap", func() scheduler { return &heapSched{} }},
}

// heapSched is a binary min-heap over (at, ct, seq): the oracle's model of
// the event queue. Its sift loops are classic and easy to audit, and
// because (at, ct, seq) is a total order — seq is unique — its pop
// sequence is simply sorted order, whatever its internal layout.
type heapSched struct {
	pq []*event
}

// insert appends ev and restores the heap property.
func (h *heapSched) insert(ev *event) {
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

// popDue removes and returns the root if it is due at or before limit.
func (h *heapSched) popDue(limit units.Time) *event {
	root := h.peek(limit)
	if root == nil {
		return nil
	}
	n := len(h.pq) - 1
	last := h.pq[n]
	h.pq[n] = nil
	h.pq = h.pq[:n]
	root.idx = idxNone
	if n > 0 {
		h.pq[0] = last
		last.idx = 0
		h.siftDown(0)
	}
	return root
}

// update restores the heap property after ev changed its key.
func (h *heapSched) update(ev *event) {
	if !h.siftDown(ev.idx) {
		h.siftUp(ev.idx)
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
		if l >= n {
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
