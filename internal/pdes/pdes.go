// Package pdes runs one topology simulation across many cores: conservative
// parallel discrete-event simulation with sharded engines synchronized by a
// barrier-window protocol whose lookahead is the minimum link propagation
// delay.
//
// # Design
//
// The topology is partitioned into shards (topo.Partition): contiguous runs
// of a BFS linearization of the switch graph, balanced by event weight, with
// explicit per-node pins honored. Each shard compiles one subset of the spec
// (topo.CompileSubset) on its own engine with the same seed, then activates
// only the flows whose endpoints it owns (sends from local sources,
// auto-reads at local sinks, telemetry on local connections), so foreign
// replicas stay silent and execute no events.
//
// The subset is chosen by one rule, with no user option. New runs one
// throwaway reference compile of the whole spec that records the clock after
// every flow's handshake. Each shard's subset (topo.BuildSubset) then holds
// its owned nodes, the one-hop stubs across its cut links, and the nodes
// traversed by flows whose packets touch the shard; it widens to every flow
// crossing a link whose fault script has a step inside the compile horizon,
// so that link's rng draws replay exactly. Skipped foreign handshakes become
// exact clock advances (sim.AdvanceTo) of their reference durations, and any
// timing deviation is detected at compile, not silently diverged. Memory
// drops to O(shard + cut). When a handshake leaves events pending (so
// skipping it would shift later timestamps) or the FIB walks fail, every
// shard compiles the whole spec instead; Runner.SparseFallback says why.
// Every shard runs the timing wheel, with bounded per-window peeks (see
// sim.NextEventAtWithin).
//
// Packets reach foreign nodes through boundary ports: on each shard, every
// cut-link direction whose receiver is foreign gets a phys handoff hook that
// clones the packet at serialization-complete time and queues it into a
// per-destination-shard slot as a time-stamped cross-shard message (arrival
// = now + propagation). Messages are exchanged at window barriers: all
// shards run [W, W+L) where L, the lookahead, is the minimum propagation
// delay over all links; a message created in a window arrives no earlier
// than the next (arrival >= ct + L), so injecting each window's messages at
// its barrier can never violate causality. When every shard is idle the
// coordinator fast-forwards to the window containing the earliest future
// work — the deterministic equivalent of a null message ("nothing before
// t") — so idle grids cost barriers, not simulated windows.
//
// The barrier is a channel round-trip: each window, the coordinator
// goroutine sends every shard a command carrying its sorted inbox and
// collects one response per shard (outbox slots, completions, a bounded
// next-event peek) before the coord decision code picks the next window.
//
// # Determinism
//
// The crown-jewel constraint: telemetry, metrics, and fabric counters are
// byte-identical for every shard count. The mechanisms that carry the proof:
//
//   - Event order. Engines order events by (time, creation time, seq);
//     cross-shard deliveries are injected with the sender-side creation time
//     (sim.InjectCall), which puts them exactly where the single-engine run
//     created them. Within one barrier delivery batch, messages are sorted
//     by (arrival, ct, source shard, source sequence, link, direction).
//   - Window grid. The lookahead uses ALL links, not just cut links, so the
//     grid — and the window-quantized stopping point — is independent of
//     where the partition falls. Every shard count executes the same event
//     set, including the tail events between the last flow's completion and
//     its window's end.
//   - Compile alignment. Each shard replays exactly the slice of the
//     construction its packets can observe and advances the clock over the
//     rest, with per-flow quiescence and handshake-duration equality
//     asserted against the reference compile (topo.CompileSubset) — so
//     every shard enters the window loop at the reference t0 with the same
//     local state the full compile produces.
//   - Engine counters. Executed sums exactly (each event runs on one shard;
//     a boundary crossing costs one wireDone at the source plus one injected
//     delivery at the destination, same as the single engine). HighWater is
//     reconstructed from per-event liveness atoms via a canonical
//     content-sorted replay (sim.ReplayHighWater), reported identically for
//     every shard count including one.
//   - Fault streams. Each scripted link direction owns a private rng seeded
//     by netem.StreamSeed(seed, link, direction) — a pure function of the
//     spec, not of compile order — and scripts apply lazily on packet
//     arrival (no engine events). Every packet of a direction is judged by
//     exactly one shard's Impair (the owner of the receiving end) in
//     single-engine event order, so fault draws, and therefore outcomes,
//     are identical at every shard count.
package pdes

import (
	"fmt"
	"time"

	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Barrier names the per-window synchronization. The channel barrier is the
// only driver; the type and Options.Barrier exist for source compatibility
// with callers that set them.
type Barrier uint8

// BarrierChan round-trips window commands and responses through the
// coordinator goroutine's channels. It is the zero value.
const BarrierChan Barrier = 0

// Replica names the shape of the shards' compile subsets. Nothing selects
// it: Runner.Replica reports what New chose.
type Replica uint8

const (
	// ReplicaSparse: each shard compiles the subset built by the subset
	// rule.
	ReplicaSparse Replica = iota
	// ReplicaFull: each shard compiles the whole spec, because narrow
	// subsets could not be proven exact (Runner.SparseFallback says why).
	ReplicaFull
)

func (m Replica) String() string {
	if m == ReplicaFull {
		return "full"
	}
	return "sparse"
}

// Options configures a parallel run.
type Options struct {
	// Shards is the engine count (>= 1). 1 is the degenerate single-engine
	// case, still window-quantized so its output is byte-identical to any
	// other shard count.
	Shards int
	// Seed seeds every shard's engine (construction is replicated, so the
	// replicas stay in lockstep through compile).
	Seed int64
	// Timeout bounds the run in simulated time (default 10 minutes, the
	// same bound topo.Network.RunFlows uses).
	Timeout units.Time
	// Telemetry, when non-nil, records per-connection instruments on each
	// connection's owning shard and merges them into Result.Bundle. It also
	// enables the liveness ledger that reconstructs HighWater.
	Telemetry *telemetry.Options
	// Metrics folds the run into a fleet-level metrics accumulator.
	Metrics bool
	// Barrier is accepted for source compatibility; BarrierChan is its only
	// value.
	Barrier Barrier
}

// Result is a completed parallel run.
type Result struct {
	// Flows holds one result per declared flow, in declaration order —
	// identical to what topo.Network.RunFlows reports.
	Flows []topo.FlowResult
	// Events is the reconstructed single-engine event count.
	Events uint64
	// HighWater is the reconstructed live-event high-water mark (0 unless
	// Telemetry enabled the ledger).
	HighWater int
	// Bundle is the merged telemetry (nil without Options.Telemetry).
	Bundle *telemetry.Bundle
	// Fabric holds per-switch counters in declaration order, each taken
	// from the switch's owning shard.
	Fabric []telemetry.FabricCounters
	// Metrics is the fleet accumulator (nil without Options.Metrics).
	Metrics *telemetry.MetricsAccumulator
	// Plan records how the topology was partitioned.
	Plan *topo.PartitionPlan
	// Windows counts executed barrier windows (diagnostics).
	Windows uint64
	// SyncWall is wall-clock time shards spent blocked on window
	// synchronization, summed over shards (diagnostics; divide by
	// Plan.Shards * Windows for the mean per-shard window sync cost).
	SyncWall time.Duration
}

// compileRef is the reference full compile's fingerprint, recorded once in
// New and checked against every shard.
type compileRef struct {
	t0       units.Time
	compiled uint64
	hw       int
}

// Runner executes a topology under conservative parallel DES. A Runner is
// reusable: engines are warmed once and Reset between runs, so repeated Run
// calls (benchmarks) pay no construction-allocation cost beyond compile.
type Runner struct {
	spec    *topo.Spec
	plan    *topo.PartitionPlan
	opts    Options
	engines []*sim.Engine

	// subs holds each shard's compile subset; nil entries compile the whole
	// spec.
	subs           []*topo.Subset
	ref            compileRef
	sparseFallback error
}

// New partitions the spec, runs one throwaway reference compile to record
// per-flow handshake clocks, and builds each shard's subset.
func New(spec *topo.Spec, opts Options) (*Runner, error) {
	if opts.Shards == 0 {
		opts.Shards = spec.Shards
	}
	if opts.Shards == 0 {
		opts.Shards = 1
	}
	if opts.Timeout == 0 {
		opts.Timeout = 10 * units.Minute
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	plan, err := topo.Partition(spec, opts.Shards)
	if err != nil {
		return nil, err
	}
	r := &Runner{spec: spec, plan: plan, opts: opts}
	if err := r.prepare(); err != nil {
		return nil, err
	}
	return r, nil
}

// prepare runs the reference full compile on a scratch engine, recording the
// clock after each flow's handshake and checking per-flow quiescence, then
// builds each shard's subset from the partition and the per-flow FIB walks.
// Where narrow subsets cannot be proven exact it leaves every subset nil
// (the whole spec) and records why. The scratch engine and network are
// dropped afterwards, so the retained per-shard cost is the subsets alone.
func (r *Runner) prepare() error {
	spec := r.spec
	eng := sim.NewEngine(r.opts.Seed)
	connT := make([]units.Time, len(spec.Flows))
	pendAfter := -1
	afterConnect := func(i int) {
		connT[i] = eng.Now()
		if pendAfter < 0 && eng.Pending() != 0 {
			pendAfter = i
		}
	}
	if _, err := topo.CompileObserved(eng, spec, r.opts.Seed, afterConnect); err != nil {
		return fmt.Errorf("pdes: reference compile: %w", err)
	}
	r.ref = compileRef{t0: eng.Now(), compiled: eng.Executed, hw: eng.HighWater}
	r.subs = make([]*topo.Subset, r.plan.Shards)
	if pendAfter >= 0 {
		r.sparseFallback = fmt.Errorf("pdes: topo %s: flow %d's handshake leaves events pending; narrow subsets need per-flow compile quiescence",
			spec.Name, pendAfter)
		return nil
	}
	paths, err := topo.FlowPaths(spec)
	if err != nil {
		r.sparseFallback = fmt.Errorf("pdes: topo %s: narrow subsets ineligible: %w", spec.Name, err)
		return nil
	}
	for i := range r.subs {
		r.subs[i] = topo.BuildSubset(spec, r.plan, i, paths, r.ref.t0)
		r.subs[i].ConnectAt = connT
	}
	return nil
}

// Plan returns the partition the runner will execute.
func (r *Runner) Plan() *topo.PartitionPlan { return r.plan }

// Replica reports the shape of the shards' subsets: ReplicaFull when New
// fell back to the whole spec, ReplicaSparse otherwise.
func (r *Runner) Replica() Replica {
	if r.sparseFallback != nil {
		return ReplicaFull
	}
	return ReplicaSparse
}

// SparseFallback reports why every shard compiles the whole spec (nil when
// the shards compile subsets built by the subset rule).
func (r *Runner) SparseFallback() error { return r.sparseFallback }

// Run executes the flows to completion and merges the shards' outputs.
func (r *Runner) Run() (*Result, error) {
	if r.engines == nil {
		r.engines = make([]*sim.Engine, r.plan.Shards)
		for i := range r.engines {
			r.engines[i] = sim.NewEngine(r.opts.Seed)
		}
	} else {
		for _, eng := range r.engines {
			eng.Reset(r.opts.Seed)
		}
	}
	shards := make([]*shard, r.plan.Shards)
	for i := range shards {
		shards[i] = &shard{
			idx: i,
			eng: r.engines[i],
			cmd: make(chan shardCmd, 1),
			res: make(chan shardRes, 1),
		}
		go r.runShard(shards[i])
	}

	// Setup barrier: every shard compiles its subset and reports the
	// construction fingerprint.
	setups := make([]shardRes, len(shards))
	var firstErr error
	for i, s := range shards {
		setups[i] = <-s.res
		if setups[i].err != nil && firstErr == nil {
			firstErr = setups[i].err
		}
	}
	alive := func(i int) bool { return setups[i].err == nil }
	if firstErr != nil {
		r.shutdown(shards, alive)
		return nil, firstErr
	}
	// Cross-check the fingerprint. Shards execute different slices of the
	// construction, but the subset compile already asserted per-flow clock
	// equality, so t0 against the reference is the residual invariant.
	startLive := 0
	for i := range setups {
		if setups[i].t0 != r.ref.t0 {
			r.shutdown(shards, alive)
			return nil, fmt.Errorf("pdes: topo %s: shard %d compiled to t0 %v, reference %v: construction is not deterministic",
				r.spec.Name, i, setups[i].t0, r.ref.t0)
		}
		startLive += setups[i].startLive
	}
	return r.runWindows(shards, setups, alive, r.ref.t0, startLive)
}

// runWindows drives the window loop from the exact setup reports: each round
// sends every shard its command and collects every response, then the
// coordinator picks the next action, until a terminal action turns into the
// merged result or the typed incompleteness error.
func (r *Runner) runWindows(shards []*shard, setups []shardRes, alive func(int) bool, t0 units.Time, startLive int) (*Result, error) {
	c := newCoord(r, t0, len(r.spec.Flows))
	nextAt := make([]units.Time, len(shards))
	hasNext := make([]bool, len(shards))
	beyond := make([]bool, len(shards))
	for i := range setups {
		nextAt[i], hasNext[i] = setups[i].nextAt, setups[i].hasNext
	}
	act := c.step(nextAt, hasNext, beyond)
	for {
		switch act.kind {
		case actWindow:
			for i, s := range shards {
				s.cmd <- shardCmd{kind: cmdWindow, windowEnd: act.wEnd, horizon: act.horizon, inbox: c.inboxes[i]}
			}
			for i, s := range shards {
				res := <-s.res
				if res.err != nil {
					setups[i].err = res.err // mark dead for shutdown
					r.shutdown(shards, alive)
					return nil, res.err
				}
				c.absorb(i, res.out, res.completions)
				nextAt[i], hasNext[i], beyond[i] = res.nextAt, res.hasNext, res.beyond
			}
			act = c.step(nextAt, hasNext, beyond)
		case actProbe:
			for _, s := range shards {
				s.cmd <- shardCmd{kind: cmdProbe}
			}
			for i, s := range shards {
				res := <-s.res
				if res.err != nil {
					setups[i].err = res.err
					r.shutdown(shards, alive)
					return nil, res.err
				}
				nextAt[i], hasNext[i] = res.nextAt, res.hasNext
			}
			act = c.probeResolve(nextAt, hasNext)
		default:
			finals, err := r.finish(shards, alive)
			if err != nil {
				return nil, err
			}
			if act.kind == actDone {
				return r.merge(finals, setups, c, startLive)
			}
			return nil, r.incompleteErr(finals, act.kind == actStalled, c.lastEnd)
		}
	}
}

// unitsMax is a sentinel beyond any simulated time.
const unitsMax = units.Time(1<<63 - 1)

// finish collects every live shard's final report.
func (r *Runner) finish(shards []*shard, alive func(int) bool) ([]shardRes, error) {
	finals := make([]shardRes, len(shards))
	var firstErr error
	for i, s := range shards {
		if !alive(i) {
			continue
		}
		s.cmd <- shardCmd{kind: cmdFinish}
	}
	for i, s := range shards {
		if !alive(i) {
			continue
		}
		finals[i] = <-s.res
		if finals[i].err != nil && firstErr == nil {
			firstErr = finals[i].err
		}
	}
	return finals, firstErr
}

// shutdown releases still-live shard goroutines after a failure. A shard
// that already died (panicked) has queued its error report, which the drain
// consumes in place of a finish response.
func (r *Runner) shutdown(shards []*shard, alive func(int) bool) {
	for i, s := range shards {
		if !alive(i) {
			continue
		}
		s.cmd <- shardCmd{kind: cmdFinish}
		<-s.res
	}
}

// incompleteErr builds the typed timeout/stall error from final flow state.
func (r *Runner) incompleteErr(finals []shardRes, stalled bool, at units.Time) error {
	e := &topo.IncompleteFlowsError{
		Topo: r.spec.Name, Timeout: r.opts.Timeout, Stalled: stalled, At: at,
	}
	for i := range r.spec.Flows {
		f := r.resolvedFlow(i)
		dst := finals[r.plan.Owner[f.Dst]]
		if len(dst.doneAt) <= i || dst.doneAt[i] != 0 {
			continue
		}
		e.Incomplete = append(e.Incomplete, topo.IncompleteFlow{
			Flow: f.Src + "->" + f.Dst, Src: f.Src, Dst: f.Dst,
			Received: dst.received[i], Total: int64(f.Count) * int64(f.Payload),
		})
	}
	return e
}

// resolvedFlow returns flow i with the spec defaults applied.
func (r *Runner) resolvedFlow(i int) topo.FlowSpec {
	f := r.spec.Flows[i]
	if f.Count == 0 {
		f.Count = topo.DefaultFlowCount
	}
	if f.Payload == 0 {
		f.Payload = topo.DefaultFlowPayload
	}
	return f
}
