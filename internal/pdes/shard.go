package pdes

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"tengig/internal/packet"
	"tengig/internal/phys"
	"tengig/internal/runner"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/telemetry"
	"tengig/internal/topo"
	"tengig/internal/units"
)

// Link directions, spec-oriented.
const (
	dirAtoB = uint8(0)
	dirBtoA = uint8(1)
)

// crossMsg is one packet crossing a shard boundary: copied by value at the
// sender's serialization-complete instant, rebuilt from the receiving
// shard's pools and delivered there at arrival = ct + propagation. Only
// values cross goroutines — the receiving shard never touches the sender's
// packet, segment or pools — and a handoff allocates nothing.
type crossMsg struct {
	link     int   // index into Spec.Links
	dir      uint8 // dirAtoB or dirBtoA
	arrival  units.Time
	ct       units.Time // sender-side creation time (wireDone instant)
	srcShard int
	srcSeq   uint64 // per-shard handoff sequence, for canonical tie-breaks

	pk     packet.Packet // Seg nil: a TCP segment travels in seg
	hasSeg bool
	seg    tcp.Segment // SACKBlocks nil: the blocks travel in sack
	nsack  uint8
	sack   [tcp.MaxSACKBlocks]tcp.SackBlock
}

// setPacket copies pk, and its TCP segment if it has one, into m. It sets
// every field the receiver reads, so m may hold an earlier message.
func (m *crossMsg) setPacket(pk *packet.Packet) {
	m.pk = *pk
	m.pk.Seg = nil
	m.hasSeg = false
	switch seg := pk.Seg.(type) {
	case nil:
	case *tcp.Segment:
		if len(seg.SACKBlocks) > len(m.sack) {
			panic(fmt.Sprintf("pdes: segment carries %d SACK blocks, at most %d cross a shard cut", len(seg.SACKBlocks), len(m.sack)))
		}
		m.hasSeg = true
		m.seg = *seg
		m.seg.SACKBlocks = nil
		m.nsack = uint8(copy(m.sack[:], seg.SACKBlocks))
	default:
		panic(fmt.Sprintf("pdes: cannot carry a %T segment across a shard cut", seg))
	}
}

type cmdKind uint8

const (
	cmdWindow cmdKind = iota
	cmdFinish
)

// shardCmd is one coordinator instruction.
type shardCmd struct {
	kind      cmdKind
	windowEnd units.Time // exclusive window bound (run events at < windowEnd)
	inbox     []crossMsg // cross-shard deliveries due in this window, sorted
}

// shardRes is a shard's reply; fields are phase-dependent.
type shardRes struct {
	shard int
	err   error

	// Setup: construction fingerprint.
	t0        units.Time
	startLive int

	// Windows: boundary traffic and progress. out aliases the shard's
	// per-destination slots; the coordinator copies them out before the next
	// window command. nextAt is the shard's exact next-event time.
	out         [][]crossMsg
	nextAt      units.Time
	hasNext     bool
	completions int

	// Finish (executed also reports the compile count at setup).
	executed    uint64
	atoms       []sim.LiveAtom
	bundle      *telemetry.Bundle
	fabric      []telemetry.FabricCounters
	received    []int64      // per flow, meaningful where dst is local
	doneAt      []units.Time // per flow, meaningful where dst is local
	retransmits []int64      // per flow, meaningful where src is local
	srcConn     []string     // per flow: the source connection's name
	dstConn     []string
	syncWall    time.Duration // total time blocked on window synchronization
}

// shard is the coordinator's handle to one engine goroutine.
type shard struct {
	idx int
	eng *sim.Engine
	cmd chan shardCmd
	res chan shardRes
}

// shardState is the goroutine-local world: the compiled subset plus the
// activation state for locally-owned endpoints.
type shardState struct {
	net    *topo.Network
	ledger *sim.LiveLedger
	bundle *telemetry.Bundle

	// out holds outbound cross-shard messages in per-destination-shard
	// slots, filled by the boundary handoffs (each knows its receiver's
	// owner) and drained by the coordinator every window. The slots keep
	// their backing arrays across windows.
	out    [][]crossMsg
	outSeq uint64
	inFns  map[[2]int]func(any) // (link, dir) -> bound Port.Deliver on this replica
	// pkts and segs hold the packets and segments this shard rebuilds from
	// other shards' messages. Those packets are released here, on this
	// shard's goroutine, like any host's.
	pkts *packet.Pool
	segs *tcp.SegmentPool

	received    []int64
	doneAt      []units.Time
	totals      []int64
	newlyDone   int
	retransmits []int64
	syncWall    time.Duration
}

// runWindow resets the per-window slots, injects the inbox, and runs this
// shard's slice of the window.
func (st *shardState) runWindow(eng *sim.Engine, wEnd units.Time, inbox []crossMsg) {
	for dst := range st.out {
		st.out[dst] = st.out[dst][:0]
	}
	st.newlyDone = 0
	for i := range inbox {
		m := &inbox[i]
		fn := st.inFns[[2]int{m.link, int(m.dir)}]
		if fn == nil {
			panic(fmt.Sprintf("pdes: received message for foreign link %d dir %d", m.link, m.dir))
		}
		eng.InjectCall(m.arrival, m.ct, fn, st.packet(m))
	}
	eng.RunUntil(wEnd - 1)
}

// packet rebuilds m's packet, and its segment, from this shard's pools.
func (st *shardState) packet(m *crossMsg) *packet.Packet {
	pk := st.pkts.GetCopy(&m.pk)
	if m.hasSeg {
		seg := st.segs.Get()
		blocks := seg.SACKBlocks[:0]
		if m.nsack > 0 && cap(blocks) < len(m.sack) {
			blocks = make([]tcp.SackBlock, 0, len(m.sack))
		}
		*seg = m.seg
		seg.SACKBlocks = append(blocks, m.sack[:m.nsack]...)
		pk.Seg = seg
	}
	return pk
}

// runShard is the per-shard goroutine: compile the subset, activate local
// endpoints, then serve barrier windows until told to finish. Panics are
// contained into a runner.PanicError so one bad shard fails the run, not
// the process. The goroutine carries a pprof label so CPU and allocation
// profiles attribute parallel-run work to its shard.
func (r *Runner) runShard(s *shard) {
	defer func() {
		if v := recover(); v != nil {
			s.res <- shardRes{shard: s.idx, err: &runner.PanicError{
				Index: s.idx,
				Label: fmt.Sprintf("pdes shard %d/%d of %s", s.idx, r.plan.Shards, r.spec.Name),
				Value: v,
				Stack: debug.Stack(),
			}}
		}
	}()
	pprof.Do(context.Background(), pprof.Labels("pdes_shard", strconv.Itoa(s.idx)), func(context.Context) {
		r.shardBody(s)
	})
}

func (r *Runner) shardBody(s *shard) {
	st, res := r.setupShard(s)
	s.res <- res
	if res.err != nil {
		return
	}
	eng := s.eng
	for {
		t := time.Now()
		c := <-s.cmd
		st.syncWall += time.Since(t)
		switch c.kind {
		case cmdWindow:
			st.runWindow(eng, c.windowEnd, c.inbox)
			next, has := eng.NextEventAt()
			s.res <- shardRes{
				shard: s.idx, out: st.out,
				nextAt: next, hasNext: has,
				completions: st.newlyDone,
			}
		case cmdFinish:
			var atoms []sim.LiveAtom
			if st.ledger != nil {
				atoms = st.ledger.Atoms()
			}
			for i, p := range st.net.Pairs {
				if p != nil && r.plan.Owner[r.spec.Flows[i].Src] == s.idx {
					st.retransmits[i] = p.Src.Conn.Stats.Retransmits
				}
			}
			srcConn := make([]string, len(st.net.Pairs))
			dstConn := make([]string, len(st.net.Pairs))
			for i, p := range st.net.Pairs {
				if p != nil {
					srcConn[i], dstConn[i] = p.Src.Conn.Name(), p.Dst.Conn.Name()
				}
			}
			s.res <- shardRes{
				shard: s.idx, executed: eng.Executed,
				atoms: atoms, bundle: st.bundle, fabric: st.net.FabricCounters(),
				received: st.received, doneAt: st.doneAt,
				retransmits: st.retransmits, srcConn: srcConn, dstConn: dstConn,
				syncWall: st.syncWall,
			}
			return
		}
	}
}

// setupShard compiles the shard's subset and activates the locally-owned
// slice of the simulation. The returned shardRes carries the construction
// fingerprint the coordinator cross-checks.
func (r *Runner) setupShard(s *shard) (*shardState, shardRes) {
	fail := func(err error) (*shardState, shardRes) {
		return nil, shardRes{shard: s.idx, err: err}
	}
	eng, spec, owner := s.eng, r.spec, r.plan.Owner
	net, err := topo.CompileSubset(eng, spec, r.opts.Seed, r.subs[s.idx])
	if err != nil {
		return fail(fmt.Errorf("pdes: shard %d: %w", s.idx, err))
	}
	// Replica silence depends on a quiescent start: with pending timers a
	// foreign replica would execute events of its own. Every shipped
	// topology compiles to quiescence (handshakes complete, no timers armed);
	// guard the invariant for future ones.
	if n := eng.Pending(); n != 0 {
		return fail(fmt.Errorf("pdes: topo %s: %d events still pending after compile; replicated shards would diverge", spec.Name, n))
	}
	compiled, t0 := eng.Executed, eng.Now()

	st := &shardState{
		net:         net,
		out:         make([][]crossMsg, r.plan.Shards),
		inFns:       make(map[[2]int]func(any)),
		pkts:        packet.NewPool(),
		segs:        tcp.NewSegmentPool(),
		received:    make([]int64, len(net.Pairs)),
		doneAt:      make([]units.Time, len(net.Pairs)),
		totals:      make([]int64, len(net.Pairs)),
		retransmits: make([]int64, len(net.Pairs)),
	}
	st.pkts.ReleaseSeg = func(seg any) { st.segs.Put(seg.(*tcp.Segment)) }

	// Boundary ports: for each cut-link direction, the sending shard hands
	// packets off, the receiving shard registers the injection target. A
	// shard wires only the cut links present in its subset — every cut link
	// with a locally-owned endpoint is, by the one-hop stub rule.
	links := net.Links()
	for _, li := range r.plan.CutLinks {
		le := links[li]
		if le.AtoB == nil {
			continue // outside this shard's subset
		}
		ports := [2]*phys.Port{le.AtoB, le.BtoA}
		receivers := [2]string{le.B, le.A}
		for d := range ports {
			port := ports[d]
			if owner[receivers[d]] == s.idx {
				st.inFns[[2]int{li, d}] = port.Deliver
				continue
			}
			li, d, prop, shardIdx := li, uint8(d), le.Prop, s.idx
			dstShard := owner[receivers[d]]
			port.SetHandoff(func(pk *packet.Packet) {
				if st.ledger != nil {
					// The single engine would schedule the delivery here;
					// account for it in this shard's atom so the injected
					// twin can stay ledger-silent.
					st.ledger.NoteCreate()
				}
				// Fill the message in place: a slot kept from an earlier
				// window is overwritten field by field, not copied over.
				out := st.out[dstShard]
				out = slices.Grow(out, 1)[:len(out)+1]
				st.out[dstShard] = out
				m, now := &out[len(out)-1], eng.Now()
				m.link, m.dir, m.arrival, m.ct = li, d, now+prop, now
				m.srcShard, m.srcSeq = shardIdx, st.outSeq
				m.setPacket(pk)
				pk.Release()
				st.outSeq++
			})
		}
	}

	// Telemetry: instrument only locally-owned connection endpoints, in the
	// same pair order the single-engine attach uses, and arm the liveness
	// ledger that reconstructs HighWater.
	if r.opts.Telemetry != nil {
		opt := *r.opts.Telemetry
		st.bundle = telemetry.NewBundle(spec.Name, r.opts.Seed, opt)
		for i, p := range net.Pairs {
			if p == nil {
				continue
			}
			f := spec.Flows[i]
			if owner[f.Src] == s.idx {
				rec := st.bundle.Conn(p.Src.Conn.Name())
				p.Src.Conn.SetTelemetry(rec)
				p.Src.Conn.StartTelemetrySampler(opt.Interval())
			}
			if owner[f.Dst] == s.idx {
				rec := st.bundle.Conn(p.Dst.Conn.Name())
				p.Dst.Conn.SetTelemetry(rec)
				p.Dst.Conn.StartTelemetrySampler(opt.Interval())
			}
		}
		st.ledger = &sim.LiveLedger{}
		eng.SetLedger(st.ledger)
	}

	// Activate local flows: auto-read at local sinks, kick off local
	// sources — the same SetAutoRead-then-Send order RunFlows uses, so the
	// per-shard event creation order is a subsequence of the single run's.
	for i, p := range net.Pairs {
		f := r.resolvedFlow(i)
		st.totals[i] = int64(f.Count) * int64(f.Payload)
		if p == nil || owner[f.Dst] != s.idx {
			continue
		}
		i := i
		p.Dst.SetAutoRead(func(nb int64) {
			st.received[i] += nb
			if st.received[i] >= st.totals[i] && st.doneAt[i] == 0 {
				st.doneAt[i] = eng.Now()
				st.newlyDone++
			}
		})
	}
	for i, p := range net.Pairs {
		f := r.resolvedFlow(i)
		if p != nil && owner[f.Src] == s.idx {
			p.Src.Send(st.totals[i], f.Payload, true, nil)
		}
	}

	next, has := eng.NextEventAt()
	return st, shardRes{
		shard: s.idx,
		t0:    t0, executed: compiled,
		startLive: eng.Pending(), nextAt: next, hasNext: has,
	}
}
