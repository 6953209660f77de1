package pdes

import (
	"sort"

	"tengig/internal/units"
)

// The window coordinator: Run's window loop feeds it every shard's report
// each round, and it decides the next window — routing the deliverable
// cross-shard messages into per-shard inboxes — or a terminal action.

// horizonWindows bounds how far past the current window a shard's next-event
// report must look. On the timing wheel an unbounded peek cascades far-future
// timers every window; bounding it keeps the per-window cost proportional to
// the window span, and the coordinator falls back to an exact probe on the
// rare window where every in-horizon report comes up empty (fast-forwarding
// on anything less than the exact global minimum could skip a shard's
// earlier event and violate causality later).
const horizonWindows = 256

type actKind uint8

const (
	actWindow actKind = iota
	actProbe          // every in-horizon report empty but events exist beyond: need exact next-event times
	actDone
	actStalled
	actTimeout
)

// action is one coordinator decision.
type action struct {
	kind    actKind
	wEnd    units.Time // actWindow: exclusive window bound
	horizon units.Time // actWindow: bound for the next round's peeks
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
	horizon   units.Time
	// pend holds undeliverable cross-shard messages per destination shard;
	// inboxes holds the current window's sorted delivery batches. Both keep
	// their backing arrays across windows, so steady-state routing does not
	// allocate.
	pend    [][]crossMsg
	inboxes [][]crossMsg
}

func newCoord(r *Runner, t0 units.Time, remaining int) *coord {
	return &coord{
		r: r, t0: t0, L: r.plan.Lookahead,
		deadline:  t0 + r.opts.Timeout,
		remaining: remaining,
		horizon:   unitsMax, // setup reports are exact
		pend:      make([][]crossMsg, r.plan.Shards),
		inboxes:   make([][]crossMsg, r.plan.Shards),
	}
}

// absorb merges one shard's window products — its per-destination outbox
// slots and completion count — into the coordinator state. Call in shard
// index order; sortInbox later canonicalizes the order anyway.
func (c *coord) absorb(src int, out [][]crossMsg, completions int) {
	c.remaining -= completions
	for dst := range out {
		if len(out[dst]) > 0 {
			c.pend[dst] = append(c.pend[dst], out[dst]...)
		}
	}
}

// step decides the next action from per-shard next-event reports bounded by
// the horizon handed out with the previous window. beyond[i] means shard i
// holds events but none at or before that horizon.
func (c *coord) step(nextAt []units.Time, hasNext, beyond []bool) action {
	if c.remaining == 0 {
		return action{kind: actDone}
	}
	work, any := c.earliest(nextAt, hasNext)
	for _, b := range beyond {
		if b && (!any || work > c.horizon) {
			// The true minimum might hide past the horizon; only an exact
			// probe can tell, and fast-forwarding on a wrong minimum would
			// let a skipped event later inject into a receiver's past.
			return action{kind: actProbe}
		}
	}
	return c.decide(work, any)
}

// probeResolve finishes a step that needed exact next-event times.
func (c *coord) probeResolve(nextAt []units.Time, hasNext []bool) action {
	work, any := c.earliest(nextAt, hasNext)
	return c.decide(work, any)
}

// earliest folds shard reports and pending message arrivals into the global
// earliest-work candidate.
func (c *coord) earliest(nextAt []units.Time, hasNext []bool) (units.Time, bool) {
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
	return work, any
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
	for dst := range c.pend {
		inbox := c.inboxes[dst][:0]
		kept := c.pend[dst][:0]
		for _, m := range c.pend[dst] {
			if m.arrival < wEnd {
				inbox = append(inbox, m)
			} else {
				kept = append(kept, m)
			}
		}
		c.pend[dst] = kept
		sortInbox(inbox)
		c.inboxes[dst] = inbox
	}
	c.windows++
	c.horizon = unitsMax
	if c.L <= (unitsMax-wEnd)/horizonWindows {
		c.horizon = wEnd + horizonWindows*c.L
	}
	return action{kind: actWindow, wEnd: wEnd, horizon: c.horizon}
}

// sortInbox orders one barrier delivery batch canonically: arrival and
// sender-side creation time place each message on the (at, ct) grid every
// engine shares; source shard and per-shard sequence reproduce creation
// order among same-instant sends (shards own contiguous runs of the
// declaration order, so this matches the single engine's creation order);
// link and direction make the order total.
func sortInbox(in []crossMsg) {
	sort.Slice(in, func(i, j int) bool {
		a, b := in[i], in[j]
		if a.arrival != b.arrival {
			return a.arrival < b.arrival
		}
		if a.ct != b.ct {
			return a.ct < b.ct
		}
		if a.srcShard != b.srcShard {
			return a.srcShard < b.srcShard
		}
		if a.srcSeq != b.srcSeq {
			return a.srcSeq < b.srcSeq
		}
		if a.link != b.link {
			return a.link < b.link
		}
		return a.dir < b.dir
	})
}
