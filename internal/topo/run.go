package topo

import (
	"fmt"

	"tengig/internal/telemetry"
	"tengig/internal/units"
)

// FlowResult is one flow's completed transfer.
type FlowResult struct {
	Src, Dst string
	Flow     uint32
	// Class is the flow's declared traffic class ("" = default).
	Class   string
	Bytes   int64
	Elapsed units.Time
	// Throughput is application-visible goodput, first write to last byte
	// consumed by the receiver.
	Throughput  units.Bandwidth
	Retransmits int64
}

// IncompleteFlow identifies one flow that had not finished when a run gave
// up, with how far it got.
type IncompleteFlow struct {
	Flow     string // "src->dst"
	Src, Dst string
	Received int64
	Total    int64
}

// IncompleteFlowsError reports which flows were still unfinished when
// RunFlows (or a parallel-DES run) hit its deadline or stalled. A typed
// error with the per-flow byte counts is what makes a wedged run — a stuck
// shard barrier, a blackholed route — debuggable: the caller can see
// immediately whether a flow never started (0 bytes) or died mid-transfer.
type IncompleteFlowsError struct {
	Topo    string
	Timeout units.Time
	// Stalled marks a run that ran out of events (nothing left to execute)
	// rather than out of time.
	Stalled bool
	// At is the simulated time the run gave up.
	At         units.Time
	Incomplete []IncompleteFlow
}

// Error implements error, naming every unfinished flow.
func (e *IncompleteFlowsError) Error() string {
	verb := "incomplete after"
	if e.Stalled {
		verb = "stalled (no events left) at"
	}
	msg := fmt.Sprintf("topo %s: %d flows %s %v:", e.Topo, len(e.Incomplete), verb, e.Timeout)
	for _, f := range e.Incomplete {
		msg += fmt.Sprintf(" %s (%d of %d bytes)", f.Flow, f.Received, f.Total)
	}
	return msg
}

// RunFlows drives every declared flow concurrently to completion — all
// senders start at the same simulated instant, as the paper's aggregation
// experiments do — and reports per-flow goodput. A flow that has not
// finished by timeout fails the run.
func (n *Network) RunFlows(timeout units.Time) ([]FlowResult, error) {
	if len(n.Pairs) == 0 {
		return nil, fmt.Errorf("topo %s: no flows declared", n.Spec.Name)
	}
	start := n.Eng.Now()
	type state struct {
		total    int64
		received int64
		doneAt   units.Time
	}
	states := make([]*state, len(n.Pairs))
	remaining := len(n.Pairs)
	for i, p := range n.Pairs {
		f := n.flows[i]
		st := &state{total: int64(f.Count) * int64(f.Payload)}
		states[i] = st
		p.Dst.SetAutoRead(func(nb int64) {
			st.received += nb
			if st.received >= st.total && st.doneAt == 0 {
				st.doneAt = n.Eng.Now()
				remaining--
			}
		})
	}
	// Start every sender before stepping: the writes all land at the same
	// simulated time, so flows genuinely contend from the first byte.
	for i, p := range n.Pairs {
		p.Src.Send(states[i].total, n.flows[i].Payload, true, nil)
	}
	deadline := start + timeout
	stalled := false
	for remaining > 0 && n.Eng.Now() < deadline {
		if !n.Eng.Step() {
			stalled = true
			break
		}
	}
	out := make([]FlowResult, len(n.Pairs))
	var stuck []IncompleteFlow
	for i, p := range n.Pairs {
		f, st := n.flows[i], states[i]
		if st.doneAt == 0 {
			stuck = append(stuck, IncompleteFlow{
				Flow: f.Src + "->" + f.Dst, Src: f.Src, Dst: f.Dst,
				Received: st.received, Total: st.total,
			})
			continue
		}
		elapsed := st.doneAt - start
		out[i] = FlowResult{
			Src: f.Src, Dst: f.Dst, Flow: uint32(i + 1),
			Class:       f.Class,
			Bytes:       st.received,
			Elapsed:     elapsed,
			Throughput:  units.Throughput(st.received, elapsed),
			Retransmits: p.Src.Conn.Stats.Retransmits,
		}
	}
	if len(stuck) > 0 {
		return nil, &IncompleteFlowsError{
			Topo: n.Spec.Name, Timeout: timeout,
			Stalled: stalled, At: n.Eng.Now(), Incomplete: stuck,
		}
	}
	return out, nil
}

// CollectMetrics folds a run's flow results and the network's switch
// counters into a fleet-level metrics accumulator (see Metrics).
func (n *Network) CollectMetrics(results []FlowResult) *telemetry.MetricsAccumulator {
	return Metrics(results, n.FabricCounters())
}

// Metrics folds a run's flow results and switch counters into a
// fleet-level metrics accumulator: flows in declaration order, then fabric
// nodes in declaration order, so the result is deterministic for a given
// run whether one engine or sharded engines produced it.
func Metrics(results []FlowResult, fabric []telemetry.FabricCounters) *telemetry.MetricsAccumulator {
	m := telemetry.NewMetricsAccumulator()
	for _, r := range results {
		m.RecordFlow(telemetry.FlowRecord{
			Class:       r.Class,
			Bytes:       r.Bytes,
			FCT:         r.Elapsed,
			Goodput:     r.Throughput,
			Retransmits: r.Retransmits,
		})
	}
	for _, fc := range fabric {
		m.AddFabric(fc)
	}
	return m
}

// Aggregate sums the flows' goodput over the slowest flow's elapsed time —
// the aggregation number the paper reports for its multi-flow experiments.
func Aggregate(results []FlowResult) units.Bandwidth {
	var bytes int64
	var span units.Time
	for _, r := range results {
		bytes += r.Bytes
		if r.Elapsed > span {
			span = r.Elapsed
		}
	}
	if span == 0 {
		return 0
	}
	return units.Throughput(bytes, span)
}
