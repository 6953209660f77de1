package pdes

import (
	"cmp"
	"slices"

	"tengig/internal/units"
)

// The window coordinator: Run's window loop feeds it every shard's report
// each round, and it decides the next window — routing the deliverable
// cross-shard messages into per-shard inboxes — or a terminal action.

type actKind uint8

const (
	actWindow actKind = iota
	actDone
	actStalled
	actTimeout
)

// action is one coordinator decision.
type action struct {
	kind actKind
	wEnd units.Time // actWindow: exclusive window bound
}

// coord carries the window-loop state.
type coord struct {
	r         *Runner
	t0        units.Time
	L         units.Time
	deadline  units.Time
	remaining int
	windows   uint64
	lastEnd   units.Time
	// pend holds undeliverable cross-shard messages per destination shard;
	// inboxes holds the current window's sorted delivery batches, and order
	// the pending indices of one batch while it is sorted. All keep their
	// backing arrays across windows, so steady-state routing does not
	// allocate.
	pend    [][]crossMsg
	inboxes [][]crossMsg
	order   []int
}

func newCoord(r *Runner, t0 units.Time, remaining int) *coord {
	return &coord{
		r: r, t0: t0, L: r.plan.Lookahead,
		deadline:  t0 + r.opts.Timeout,
		remaining: remaining,
		pend:      make([][]crossMsg, r.plan.Shards),
		inboxes:   make([][]crossMsg, r.plan.Shards),
	}
}

// absorb merges one shard's window products — its per-destination outbox
// slots and completion count — into the coordinator state. Call in shard
// index order; decide later canonicalizes the order anyway.
func (c *coord) absorb(src int, out [][]crossMsg, completions int) {
	c.remaining -= completions
	for dst := range out {
		if len(out[dst]) > 0 {
			c.pend[dst] = append(c.pend[dst], out[dst]...)
		}
	}
}

// step decides the next action from the shards' exact next-event reports
// and the pending messages' arrivals: the earliest of them is the global
// minimum the window grid fast-forwards to.
func (c *coord) step(nextAt []units.Time, hasNext []bool) action {
	if c.remaining == 0 {
		return action{kind: actDone}
	}
	work, any := unitsMax, false
	for i := range nextAt {
		if hasNext[i] && (!any || nextAt[i] < work) {
			work, any = nextAt[i], true
		}
	}
	for dst := range c.pend {
		for i := range c.pend[dst] {
			if at := c.pend[dst][i].arrival; !any || at < work {
				work, any = at, true
			}
		}
	}
	return c.decide(work, any)
}

// decide turns the earliest-work candidate into the next window (routing the
// deliverable messages into per-shard inboxes) or a terminal action.
func (c *coord) decide(work units.Time, any bool) action {
	if !any {
		return action{kind: actStalled}
	}
	if work >= c.deadline {
		return action{kind: actTimeout}
	}
	// Fast-forward to the window containing it (grid anchored at t0).
	wStart := c.t0 + (work-c.t0)/c.L*c.L
	wEnd := wStart + c.L
	c.lastEnd = wEnd
	for dst, pend := range c.pend {
		// A message is about 300 bytes: sort the deliverable ones' indices,
		// then copy each message once into the inbox, in order.
		order := c.order[:0]
		for i := range pend {
			if pend[i].arrival < wEnd {
				order = append(order, i)
			}
		}
		slices.SortFunc(order, func(i, j int) int { return compareMsgs(&pend[i], &pend[j]) })
		inbox := c.inboxes[dst][:0]
		for _, i := range order {
			inbox = append(inbox, pend[i])
		}
		c.inboxes[dst], c.order = inbox, order
		kept := pend[:0]
		for i := range pend {
			if pend[i].arrival >= wEnd {
				kept = append(kept, pend[i])
			}
		}
		c.pend[dst] = kept
	}
	c.windows++
	return action{kind: actWindow, wEnd: wEnd}
}

// compareMsgs orders one barrier delivery batch canonically: arrival and
// sender-side creation time place each message on the (at, ct) grid every
// engine shares; source shard and per-shard sequence reproduce creation
// order among same-instant sends (shards own contiguous runs of the
// declaration order, so this matches the single engine's creation order);
// link and direction make the order total.
func compareMsgs(a, b *crossMsg) int {
	if c := cmp.Compare(a.arrival, b.arrival); c != 0 {
		return c
	}
	if c := cmp.Compare(a.ct, b.ct); c != 0 {
		return c
	}
	if c := cmp.Compare(a.srcShard, b.srcShard); c != 0 {
		return c
	}
	if c := cmp.Compare(a.srcSeq, b.srcSeq); c != 0 {
		return c
	}
	if c := cmp.Compare(a.link, b.link); c != 0 {
		return c
	}
	return cmp.Compare(a.dir, b.dir)
}
