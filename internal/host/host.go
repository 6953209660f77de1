package host

import (
	"fmt"

	"tengig/internal/alloc"
	"tengig/internal/capture"
	"tengig/internal/ethernet"
	"tengig/internal/ipv4"
	"tengig/internal/mem"
	"tengig/internal/nic"
	"tengig/internal/packet"
	"tengig/internal/pci"
	"tengig/internal/sim"
	"tengig/internal/tcp"
	"tengig/internal/trace"
	"tengig/internal/units"
)

// Stats counts host-level events.
type Stats struct {
	QdiscDrops    int64 // packets dropped at the transmit queue
	NoSockDrops   int64 // packets with no matching connection
	ChecksumDrops int64 // corrupt packets discarded by checksum verification
	UDPReceived   int64
	UDPBytes      int64
}

// NICPort is one adapter installed in the host with its dedicated PCI bus
// and transmit queue state.
type NICPort struct {
	Adapter   *nic.Adapter
	Bus       *pci.Bus
	queued    int
	dequeueCb func(any) // bound once: decrements queued when a transmit completes
}

// txBatch carries one output() call's wire packets from the CPU-cost event to
// packet creation, replacing the per-call closure. Batches recycle on a
// host-local free list.
type txBatch struct {
	s      *Socket
	pieces []*tcp.Segment
	next   *txBatch
}

// rxJob carries one received packet (and its sk_backlog charge, fixed at IRQ
// time) through the per-packet receive-processing event. Jobs recycle on a
// host-local free list.
type rxJob struct {
	pk   *packet.Packet
	ts   int64
	next *rxJob
}

// Host is one simulated end system.
type Host struct {
	eng     *sim.Engine
	cfg     Config
	cpus    []*sim.Server
	memsys  *mem.System
	alloc   *alloc.Allocator
	nics    []*NICPort
	socks   map[uint32]*Socket
	ids     *packet.IDGen
	tracer  *trace.Tracer
	tap     *capture.Capture
	irqNext int

	udpSink func(pk *packet.Packet)

	// Free lists and pre-bound callbacks for the allocation-free hot path.
	// All are single-goroutine by the simulation contract.
	pktPool   *packet.Pool
	segPool   *tcp.SegmentPool
	freeBatch *txBatch
	freeRxJob *rxJob
	txCb      func(any) // runs a txBatch after its CPU cost elapses
	udpCb     func(any) // delivers a UDP packet
	tcpRxCb   func(any) // finishes per-packet receive processing (rxJob)

	// Stats is the host's event counter block.
	Stats Stats
}

// New builds a host. Panics on invalid config.
func New(eng *sim.Engine, cfg Config) *Host {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	ncpu := cfg.CPUs
	if cfg.Kernel.Uniprocessor {
		ncpu = 1
	}
	h := &Host{
		eng:    eng,
		cfg:    cfg,
		memsys: mem.NewSystem(eng, cfg.Name, cfg.Mem),
		alloc:  alloc.New(cfg.Costs.AllocBase, cfg.Costs.AllocPerOrder),
		socks:  make(map[uint32]*Socket),
		ids:    &packet.IDGen{Base: uint64(cfg.Addr) << 32},
	}
	for i := 0; i < ncpu; i++ {
		h.cpus = append(h.cpus, sim.NewServer(eng, fmt.Sprintf("%s/cpu%d", cfg.Name, i)))
	}
	h.pktPool = packet.NewPool()
	h.segPool = tcp.NewSegmentPool()
	// The packet pool cannot name *tcp.Segment (layering); route released
	// segments back into this host's segment pool through the any-typed hook.
	h.pktPool.ReleaseSeg = func(s any) { h.segPool.Put(s.(*tcp.Segment)) }
	h.txCb = func(x any) { h.runTxBatch(x.(*txBatch)) }
	h.udpCb = func(x any) { h.deliverUDP(x.(*packet.Packet)) }
	h.tcpRxCb = func(x any) { h.finishTCPRx(x.(*rxJob)) }
	return h
}

// getBatch pops a recycled txBatch (or allocates the pool's first few).
func (h *Host) getBatch() *txBatch {
	if b := h.freeBatch; b != nil {
		h.freeBatch = b.next
		b.next = nil
		return b
	}
	return &txBatch{}
}

func (h *Host) putBatch(b *txBatch) {
	b.s = nil
	for i := range b.pieces {
		b.pieces[i] = nil
	}
	b.pieces = b.pieces[:0]
	b.next = h.freeBatch
	h.freeBatch = b
}

func (h *Host) getRxJob() *rxJob {
	if j := h.freeRxJob; j != nil {
		h.freeRxJob = j.next
		j.next = nil
		return j
	}
	return &rxJob{}
}

func (h *Host) putRxJob(j *rxJob) {
	j.pk = nil
	j.ts = 0
	j.next = h.freeRxJob
	h.freeRxJob = j
}

// Name returns the host name.
func (h *Host) Name() string { return h.cfg.Name }

// Addr returns the host address.
func (h *Host) Addr() ipv4.Addr { return h.cfg.Addr }

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// Engine returns the simulation engine.
func (h *Host) Engine() *sim.Engine { return h.eng }

// Mem returns the host's memory system.
func (h *Host) Mem() *mem.System { return h.memsys }

// Alloc returns the host's buffer-allocator model.
func (h *Host) Alloc() *alloc.Allocator { return h.alloc }

// SetTracer installs a MAGNET-style packet tracer (nil disables).
func (h *Host) SetTracer(t *trace.Tracer) { h.tracer = t }

// Tracer returns the installed tracer (possibly nil).
func (h *Host) Tracer() *trace.Tracer { return h.tracer }

// SetCapture attaches a tcpdump-style tap observing every TCP segment the
// host transmits or receives (nil detaches).
func (h *Host) SetCapture(c *capture.Capture) { h.tap = c }

// Capture returns the attached tap (possibly nil).
func (h *Host) Capture() *capture.Capture { return h.tap }

// TotalBusy implements stats.BusyReader: accumulated CPU busy time.
func (h *Host) TotalBusy() units.Time {
	var t units.Time
	for _, c := range h.cpus {
		t += c.BusyTime()
	}
	return t
}

// NumCPU implements stats.BusyReader.
func (h *Host) NumCPU() int { return len(h.cpus) }

// irqCPU is where interrupts and the receive path run: CPU0, as the P4
// Xeon SMP architecture pins them, unless IRQRoundRobin rotates per
// interrupt.
func (h *Host) irqCPU() *sim.Server {
	if h.cfg.Kernel.IRQRoundRobin && len(h.cpus) > 1 {
		h.irqNext = (h.irqNext + 1) % len(h.cpus)
		return h.cpus[h.irqNext]
	}
	return h.cpus[0]
}

// appCPU is where process context (syscalls, copies, transmit path) runs.
func (h *Host) appCPU() *sim.Server { return h.cpus[len(h.cpus)-1] }

// appCPUFor spreads per-connection process context across the non-IRQ CPUs
// (flows pin round-robin, as a multi-CPU host schedules its receivers).
func (h *Host) appCPUFor(flow uint32) *sim.Server {
	if len(h.cpus) <= 2 {
		return h.appCPU()
	}
	n := len(h.cpus) - 1 // CPU0 is the IRQ CPU
	return h.cpus[1+int(flow)%n]
}

// smp reports whether SMP overheads apply.
func (h *Host) smp() bool { return len(h.cpus) > 1 }

// kcost scales a kernel cost for SMP locking overhead.
func (h *Host) kcost(t units.Time) units.Time {
	if h.smp() {
		return units.Time(float64(t) * h.cfg.Costs.SMPFactor)
	}
	return t
}

// AddNIC installs an adapter on its own PCI bus (as in the paper's testbeds:
// a dedicated PCI-X bus per 10GbE adapter). Returns the port index.
func (h *Host) AddNIC(cfg nic.Config) int {
	idx := len(h.nics)
	bus := pci.NewBus(h.eng, fmt.Sprintf("%s/pcix%d", h.cfg.Name, idx), h.cfg.PCI)
	ad := nic.New(h.eng, cfg, bus, h.memsys)
	ad.SetIRQ(func(batch []*packet.Packet) { h.onIRQ(batch) })
	np := &NICPort{Adapter: ad, Bus: bus}
	np.dequeueCb = func(any) { np.queued-- }
	h.nics = append(h.nics, np)
	return idx
}

// NIC returns the adapter at idx.
func (h *Host) NIC(idx int) *NICPort { return h.nics[idx] }

// NICs returns the number of installed adapters.
func (h *Host) NICs() int { return len(h.nics) }

// SetUDPSink registers the consumer for arriving UDP packets (the pktgen
// receive side).
func (h *Host) SetUDPSink(f func(pk *packet.Packet)) { h.udpSink = f }

// enqueue places a packet on a NIC's transmit queue, dropping at the qdisc
// limit (txqueuelen).
func (h *Host) enqueue(nicIdx int, pk *packet.Packet) {
	np := h.nics[nicIdx]
	if np.queued >= h.cfg.Kernel.TxQueueLen {
		h.Stats.QdiscDrops++
		pk.Release()
		return
	}
	np.queued++
	doneAt := np.Adapter.Transmit(pk)
	h.eng.ScheduleCall(doneAt, np.dequeueCb, nil)
	h.tracer.Hit(pk.ID, trace.StageDriverTx, h.eng.Now())
}

// output is the TCP→device path: charge the transmit-side kernel costs on
// the right CPU, then hand the packet to the qdisc. TSO-capable NICs accept
// a single super-segment charge and split it into wire packets here.
func (h *Host) output(s *Socket, seg *tcp.Segment) {
	c := h.cfg.Costs
	isData := seg.Len > 0 || seg.SYN || seg.FIN
	np := h.nics[s.nicIdx]

	var cpu *sim.Server
	var cost units.Time
	if isData {
		cpu = h.appCPUFor(s.flow) // process-context transmit
		cost = h.kcost(c.TCPTxSegment)
		if h.cfg.Kernel.Timestamps {
			cost += h.kcost(c.Timestamp)
		}
		if h.smp() {
			cost += c.SMPBounce
		}
		if !np.Adapter.Config().ChecksumOffload {
			cost += units.TimeToSend(seg.Len, c.ChecksumBW)
		}
	} else {
		cpu = h.irqCPU() // acks are generated during receive processing
		cost = h.kcost(c.AckTx)
	}

	// Split a super-segment into wire packets (TSO path; for non-TSO
	// configurations TCP's MSS already fits the MTU and this loop runs
	// once). Each wire packet pays allocation and DMA separately; the
	// stack cost above is paid once — that is TSO's benefit.
	wireMSS := np.Adapter.Config().MTU - ipv4.HeaderLen - seg.HeaderLen()
	b := h.getBatch()
	b.s = s
	h.splitSegment(b, seg, wireMSS)
	for _, piece := range b.pieces {
		frame := piece.Len + piece.HeaderLen() + ipv4.HeaderLen + ethernet.HeaderLen
		_, ac := h.alloc.Alloc(frame)
		cost += ac
	}

	// One CPU event per output() call regardless of piece count — the batch
	// rides as the event argument so no closure is built per segment.
	cpu.SubmitCall(cost, h.txCb, b)
}

// runTxBatch turns a batch's segments into wire packets after the transmit
// CPU cost has been charged. Packet IDs are assigned here (not at output
// time) to preserve the pre-pooling ID order.
func (h *Host) runTxBatch(b *txBatch) {
	s := b.s
	for _, piece := range b.pieces {
		pk := h.pktPool.Get()
		pk.ID = h.ids.Next()
		pk.FlowID = s.flow
		pk.Src = h.cfg.Addr
		pk.Dst = s.remote
		pk.Proto = packet.ProtoTCP
		pk.Payload = piece.Len
		pk.L4Header = piece.HeaderLen()
		pk.Seg = piece
		if h.tracer.Admit(pk.ID) {
			h.tracer.Hit(pk.ID, trace.StageTCPOut, h.eng.Now())
		}
		h.tap.Observe(capture.Out, pk, h.eng.Now())
		h.enqueue(s.nicIdx, pk)
	}
	h.putBatch(b)
}

// splitSegment cuts a segment into wire-MSS-sized pieces appended to the
// batch (identity for in-MTU segments). Pieces come from the host segment
// pool; when a super-segment is split, the original is released — its copies
// carry all the state the wire needs, and TCP keeps no reference (the
// retransmit queue tracks byte spans, not segments).
func (h *Host) splitSegment(b *txBatch, seg *tcp.Segment, wireMSS int) {
	if seg.Len <= wireMSS || wireMSS <= 0 {
		b.pieces = append(b.pieces, seg)
		return
	}
	off := 0
	for off < seg.Len {
		n := seg.Len - off
		if n > wireMSS {
			n = wireMSS
		}
		piece := h.segPool.Get()
		sb := piece.SACKBlocks
		*piece = *seg
		// Keep the piece's own (empty) SACK array rather than aliasing the
		// super-segment's; data segments never carry SACK blocks.
		piece.SACKBlocks = sb[:0]
		piece.Seq = seg.Seq + int64(off)
		piece.Len = n
		// Only the last piece carries FIN.
		piece.FIN = seg.FIN && off+n == seg.Len
		b.pieces = append(b.pieces, piece)
		off += n
	}
	h.segPool.Put(seg)
}

// onIRQ is the receive interrupt handler: fixed entry cost, then per-packet
// processing on the IRQ CPU, delivering each packet to its connection.
func (h *Host) onIRQ(batch []*packet.Packet) {
	c := h.cfg.Costs
	cpu := h.irqCPU()
	entry := h.kcost(c.IRQEntry)
	if h.cfg.Kernel.IRQRoundRobin {
		// The handler's state migrates to whichever CPU took the vector.
		entry += c.SMPBounce
	}
	cpu.Submit(entry, nil)
	perPkt := c.IRQPerPacket
	if h.cfg.Kernel.NAPI {
		perPkt = c.NAPIPerPacket
	}
	for _, pk := range batch {
		var cost units.Time
		if pk.Proto == packet.ProtoUDP {
			cost = h.kcost(perPkt)
			cpu.SubmitCall(cost, h.udpCb, pk)
			continue
		}
		seg := pk.Seg.(*tcp.Segment)
		if seg.Len > 0 {
			cost = h.kcost(perPkt + c.TCPRxSegment)
			if h.cfg.Kernel.Timestamps {
				cost += h.kcost(c.Timestamp)
			}
			if h.smp() {
				cost += c.SMPBounce
			}
			// Receive ring refill: a fresh buffer per consumed descriptor.
			_, ac := h.alloc.Alloc(pk.IPLen() + ethernet.HeaderLen)
			cost += ac
		} else {
			cost = h.kcost(perPkt + c.AckRx)
		}
		// Packets awaiting processing charge the socket's receive buffer,
		// like sk_backlog: a host that cannot keep up closes its window.
		j := h.getRxJob()
		j.pk = pk
		if s, ok := h.socks[pk.FlowID]; ok && seg.Len > 0 {
			j.ts = alloc.BlockFor(pk.IPLen() + ethernet.HeaderLen)
			s.rxBacklog += j.ts
		}
		cpu.SubmitCall(cost, h.tcpRxCb, j)
	}
}

// finishTCPRx completes one packet's receive processing: uncharge the
// backlog, deliver the segment, recycle the job.
func (h *Host) finishTCPRx(j *rxJob) {
	pk, ts := j.pk, j.ts
	h.putRxJob(j)
	if ts > 0 {
		if s, ok := h.socks[pk.FlowID]; ok {
			s.rxBacklog -= ts
		}
	}
	h.deliverTCP(pk)
}

// deliverTCP hands a packet's segment to its connection, then releases the
// packet (and the segment, via the pool hook) back to the sending host's
// pools: Deliver copies everything it keeps, so this is the segment's
// end-of-life on the receive path.
func (h *Host) deliverTCP(pk *packet.Packet) {
	h.tracer.Hit(pk.ID, trace.StageTCPIn, h.eng.Now())
	h.tracer.Finish(pk.ID)
	h.tap.Observe(capture.In, pk, h.eng.Now())
	if pk.Corrupt {
		// Checksum verification: a payload damaged in flight (netem
		// corruption) fails the TCP checksum and never reaches the
		// connection — the sender's retransmission machinery recovers it.
		h.Stats.ChecksumDrops++
		pk.Release()
		return
	}
	s, ok := h.socks[pk.FlowID]
	if !ok {
		h.Stats.NoSockDrops++
		pk.Release()
		return
	}
	s.Conn.Deliver(pk.Seg.(*tcp.Segment))
	pk.Release()
}

// deliverUDP hands a UDP packet to the registered sink and releases it
// (pktgen packets are unpooled, for which Release is a no-op).
func (h *Host) deliverUDP(pk *packet.Packet) {
	if pk.Corrupt {
		h.Stats.ChecksumDrops++
		pk.Release()
		return
	}
	h.Stats.UDPReceived++
	h.Stats.UDPBytes += int64(pk.Payload)
	if h.udpSink != nil {
		h.udpSink(pk)
	}
	pk.Release()
}

// PacketPool exposes the host's packet free list so the invariant auditor
// can verify every drawn packet was released exactly once.
func (h *Host) PacketPool() *packet.Pool { return h.pktPool }

// SegmentPool exposes the host's segment free list for the same audit.
func (h *Host) SegmentPool() *tcp.SegmentPool { return h.segPool }
