package pdes

import (
	"fmt"

	"tengig/internal/sim"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// merge folds the shards' final reports into one Result whose telemetry,
// metrics, and counters are byte-identical to the single-engine run's.
// Every merged sequence is assembled in a declaration-order walk with each
// element taken from its owning shard, so the output order never depends on
// which shard finished first.
func (r *Runner) merge(finals, setups []shardRes, c *coord, startLive int) (*Result, error) {
	owner := r.plan.Owner
	t0 := c.t0
	res := &Result{Plan: r.plan, Windows: c.windows}
	for i := range finals {
		res.SyncWall += finals[i].syncWall
	}

	// Flow results: bytes and completion time live where the sink is,
	// retransmit counts where the source is.
	res.Flows = make([]topo.FlowResult, len(r.spec.Flows))
	for i := range r.spec.Flows {
		f := r.resolvedFlow(i)
		dst, src := finals[owner[f.Dst]], finals[owner[f.Src]]
		if dst.doneAt[i] == 0 {
			return nil, fmt.Errorf("pdes: topo %s: flow %d (%s->%s) unfinished after completion barrier", r.spec.Name, i, f.Src, f.Dst)
		}
		elapsed := dst.doneAt[i] - t0
		res.Flows[i] = topo.FlowResult{
			Src: f.Src, Dst: f.Dst, Flow: uint32(i + 1),
			Class:       f.Class,
			Bytes:       dst.received[i],
			Elapsed:     elapsed,
			Throughput:  units.Throughput(dst.received[i], elapsed),
			Retransmits: src.retransmits[i],
		}
	}

	// Fabric counters: declaration order, each switch from its owner (the
	// foreign replicas never saw a packet, so their counters are zero).
	res.Fabric = make([]telemetry.FabricCounters, 0, len(r.spec.Switches))
	for si := range r.spec.Switches {
		sw := &r.spec.Switches[si]
		res.Fabric = append(res.Fabric, finals[owner[sw.Name]].fabric[si])
	}

	// Engine counters. Each shard's Executed is its own compile count plus
	// its share of run events; run events are disjoint and exhaustive (one
	// wireDone at the source plus one injected delivery at the sink per
	// crossing — exactly the single engine's pair), so subtracting each
	// shard's compile count and adding the reference compile's count
	// reassembles the single-engine total exactly.
	res.Events = r.ref.compiled
	for i := range finals {
		res.Events += finals[i].executed - setups[i].executed
	}

	if r.opts.Telemetry != nil {
		// HighWater from the canonical liveness replay: start from the
		// combined post-kickoff population and apply every shard's atoms in
		// content order.
		hw0 := max(r.ref.hw, startLive)
		atoms := make([][]sim.LiveAtom, len(finals))
		for i := range finals {
			atoms[i] = finals[i].atoms
		}
		res.HighWater = sim.ReplayHighWater(startLive, hw0, atoms...)

		// Connection recorders, interleaved back into single-engine attach
		// order: pair by pair, source then sink, each from its owner.
		bundle := telemetry.NewBundle(r.spec.Name, r.opts.Seed, *r.opts.Telemetry)
		for i := range r.spec.Flows {
			f := r.spec.Flows[i]
			src, dst := finals[owner[f.Src]], finals[owner[f.Dst]]
			for _, pick := range []struct {
				from shardRes
				name string
			}{{src, src.srcConn[i]}, {dst, dst.dstConn[i]}} {
				rec := pick.from.bundle.Lookup(pick.name)
				if rec == nil {
					return nil, fmt.Errorf("pdes: topo %s: connection %s missing from its owning shard's telemetry", r.spec.Name, pick.name)
				}
				bundle.Conns = append(bundle.Conns, rec)
			}
		}
		bundle.CaptureEngine(res.Events, res.HighWater)
		for _, fc := range res.Fabric {
			bundle.CaptureFabric(fc)
		}
		res.Bundle = bundle
	}

	if r.opts.Metrics {
		// Same fold as topo.Network.CollectMetrics: flows in declaration
		// order, then fabric nodes in declaration order.
		m := telemetry.NewMetricsAccumulator()
		for _, fr := range res.Flows {
			m.RecordFlow(telemetry.FlowRecord{
				Class:       fr.Class,
				Bytes:       fr.Bytes,
				FCT:         fr.Elapsed,
				Goodput:     fr.Throughput,
				Retransmits: fr.Retransmits,
			})
		}
		for _, fc := range res.Fabric {
			m.AddFabric(fc)
		}
		res.Metrics = m
		if res.Bundle != nil {
			res.Bundle.CaptureMetrics(m)
		}
	}
	return res, nil
}
