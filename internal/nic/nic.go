// Package nic models the network adapter: descriptor-ring DMA engines on
// the transmit and receive paths, line-rate serialization through an
// attached phys.Port, and hardware interrupt coalescing — the feature whose
// 5-microsecond delay the paper turns off to cut end-to-end latency from
// 19 us to 14 us (Figures 6 and 7).
//
// The model captures the Intel PRO/10GbE adapter's host-visible behaviors:
// transmit packets are fetched from host memory over the PCI-X bus in
// MMRBC-sized bursts (so the MMRBC register directly shapes throughput);
// received packets are DMA-written to host memory, and an interrupt fires
// either immediately or when the coalescing timer expires, delivering the
// accumulated batch to the host's IRQ handler.
package nic

import (
	"fmt"

	"tengig/internal/ethernet"
	"tengig/internal/mem"
	"tengig/internal/packet"
	"tengig/internal/pci"
	"tengig/internal/phys"
	"tengig/internal/sim"
	"tengig/internal/units"
)

// DescOverhead is the DMA cost of descriptor fetch plus status writeback
// per packet, in bytes.
const DescOverhead = 32

// rxResidual is the minimum receive-side DMA latency after cut-through
// overlap (descriptor writeback).
const rxResidual = 200 * units.Nanosecond

// Config describes an adapter.
type Config struct {
	// Name for diagnostics.
	Name string
	// LineRate is the medium speed (10 Gb/s for the Intel PRO/10GbE LR).
	LineRate units.Bandwidth
	// MTU is the configured MTU; MaxMTU is the hardware limit (16000 for
	// the Intel adapter).
	MTU    int
	MaxMTU int
	// CoalesceDelay is the interrupt-coalescing timer: the delay between a
	// packet's arrival in host memory and the interrupt announcing it,
	// during which further arrivals ride along. Zero disables coalescing
	// (immediate per-packet interrupts).
	CoalesceDelay units.Time
	// ChecksumOffload computes TCP/IP checksums in hardware (the host skips
	// its per-byte checksum cost).
	ChecksumOffload bool
	// TSO enables TCP segmentation offload (large virtual MTU at the host;
	// the host charges per-super-segment costs instead of per-packet).
	TSO bool
	// RxRing is the receive descriptor ring size; packets arriving while
	// the ring is exhausted are dropped (counted as overruns).
	RxRing int
}

// TenGbE returns the Intel PRO/10GbE LR configuration with the paper's
// default 5-microsecond interrupt delay.
func TenGbE(mtu int) Config {
	return Config{
		Name:            "intel-10gbe",
		LineRate:        10 * units.GbitPerSecond,
		MTU:             mtu,
		MaxMTU:          ethernet.MTUMax10GbE,
		CoalesceDelay:   5 * units.Microsecond,
		ChecksumOffload: true,
		RxRing:          256,
	}
}

// GbE returns an e1000-class Gigabit Ethernet adapter configuration.
func GbE(mtu int) Config {
	return Config{
		Name:            "e1000",
		LineRate:        units.GbitPerSecond,
		MTU:             mtu,
		MaxMTU:          ethernet.MTUJumbo,
		CoalesceDelay:   20 * units.Microsecond,
		ChecksumOffload: true,
		RxRing:          256,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.LineRate <= 0 {
		return fmt.Errorf("nic %s: non-positive line rate", c.Name)
	}
	if !ethernet.ValidMTU(c.MTU) || c.MTU > c.MaxMTU {
		return fmt.Errorf("nic %s: invalid MTU %d (max %d)", c.Name, c.MTU, c.MaxMTU)
	}
	if c.CoalesceDelay < 0 {
		return fmt.Errorf("nic %s: negative coalesce delay", c.Name)
	}
	if c.RxRing < 1 {
		return fmt.Errorf("nic %s: rx ring %d", c.Name, c.RxRing)
	}
	return nil
}

// Stats counts adapter events.
type Stats struct {
	TxPackets, RxPackets int64
	TxBytes, RxBytes     int64 // IP bytes
	Interrupts           int64
	RxOverruns           int64 // ring exhaustion drops
	CoalescedPackets     int64 // packets delivered in multi-packet interrupts
}

// Adapter is one NIC instance plugged into a host's PCI bus and memory
// system.
type Adapter struct {
	eng    *sim.Engine
	cfg    Config
	bus    *pci.Bus
	memsys *mem.System
	txDMA  *sim.Server
	rxDMA  *sim.Server
	port   *phys.Port // transmit side of the attached link

	irq func(batch []*packet.Packet)

	// Per-packet callbacks bound once at construction; the hot path passes
	// the packet as the event argument instead of capturing it in a closure.
	sendCb func(any) // wire handoff at the cut-through send instant
	rxCb   func(any) // rx DMA completion
	irqCb  func(any) // coalescing timer expiry

	pending      []*packet.Packet
	coalesceTm   sim.Timer
	batchFirstAt units.Time // when the current batch's first packet landed
	rxInFlight   int        // descriptors in use (DMA queued, IRQ not yet delivered)

	// Stats is the adapter's event counter block.
	Stats Stats
}

// New builds an adapter. The transmit port is attached with AttachPort; the
// host's IRQ handler with SetIRQ.
func New(eng *sim.Engine, cfg Config, bus *pci.Bus, memsys *mem.System) *Adapter {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	a := &Adapter{
		eng:    eng,
		cfg:    cfg,
		bus:    bus,
		memsys: memsys,
		txDMA:  sim.NewServer(eng, cfg.Name+"/txdma"),
		rxDMA:  sim.NewServer(eng, cfg.Name+"/rxdma"),
	}
	a.sendCb = func(x any) { a.port.Send(x.(*packet.Packet)) }
	a.rxCb = func(x any) { a.packetInHostMemory(x.(*packet.Packet)) }
	a.irqCb = func(any) { a.fireIRQ() }
	return a
}

// Config returns the adapter configuration.
func (a *Adapter) Config() Config { return a.cfg }

// SetCoalesceDelay reconfigures interrupt coalescing (the paper's
// "turning off a feature called interrupt coalescing").
func (a *Adapter) SetCoalesceDelay(d units.Time) {
	if d < 0 {
		panic("nic: negative coalesce delay")
	}
	a.cfg.CoalesceDelay = d
}

// SetMTU reconfigures the device MTU (ifconfig mtu).
func (a *Adapter) SetMTU(mtu int) {
	if !ethernet.ValidMTU(mtu) || mtu > a.cfg.MaxMTU {
		panic(fmt.Sprintf("nic %s: invalid MTU %d", a.cfg.Name, mtu))
	}
	a.cfg.MTU = mtu
}

// AttachPort connects the adapter's transmit side to a link port.
func (a *Adapter) AttachPort(p *phys.Port) { a.port = p }

// SetIRQ registers the host's interrupt handler.
func (a *Adapter) SetIRQ(h func(batch []*packet.Packet)) { a.irq = h }

// Bus returns the adapter's PCI bus (for MMRBC reprogramming).
func (a *Adapter) Bus() *pci.Bus { return a.bus }

// Transmit queues a packet for DMA fetch and wire transmission. The
// returned time is when the packet will have left host memory (descriptor
// reusable). Caller (the host qdisc) bounds queueing.
func (a *Adapter) Transmit(pk *packet.Packet) units.Time {
	if a.port == nil {
		panic("nic " + a.cfg.Name + ": transmit with no port attached")
	}
	if pk.IPLen() > a.cfg.MTU {
		panic(fmt.Sprintf("nic %s: packet len %d exceeds MTU %d", a.cfg.Name, pk.IPLen(), a.cfg.MTU))
	}
	a.Stats.TxPackets++
	a.Stats.TxBytes += int64(pk.IPLen())
	dmaBytes := pk.IPLen() + ethernet.HeaderLen + DescOverhead
	start := a.eng.Now()
	if f := a.txDMA.FreeAt(); f > start {
		start = f
	}
	bursts := a.bus.Config().Bursts(dmaBytes)
	chipset := a.memsys.DMAReadTime(dmaBytes, bursts, start)
	busDone := a.bus.Transfer(dmaBytes, nil)
	service := chipset
	if stall := busDone - start; stall > service {
		service = stall
	}
	if pk.SentAt == 0 {
		pk.SentAt = a.eng.Now()
	}
	// Cut-through: the MAC begins transmitting while the tail of the packet
	// is still being fetched, as long as the FIFO cannot underrun — the
	// wire may start one serialization time before the DMA completes. The
	// DMA engine's FIFO pacing (full service time) is unaffected.
	done := a.txDMA.Submit(service, nil)
	sendAt := done - a.wireTime(pk)
	if now := a.eng.Now(); sendAt < now {
		sendAt = now
	}
	a.eng.ScheduleCall(sendAt, a.sendCb, pk)
	return done
}

// wireTime returns the serialization time of pk on this adapter's medium.
func (a *Adapter) wireTime(pk *packet.Packet) units.Time {
	return units.TimeToSend(ethernet.WireBytes(pk.IPLen()), a.cfg.LineRate)
}

// Receive implements phys.Receiver: a packet arrives from the wire, is
// DMA-written to host memory, and then joins the interrupt-coalescing
// window.
func (a *Adapter) Receive(pk *packet.Packet) {
	if a.rxInFlight >= a.cfg.RxRing {
		a.Stats.RxOverruns++
		pk.Release()
		return
	}
	a.rxInFlight++
	a.Stats.RxPackets++
	a.Stats.RxBytes += int64(pk.IPLen())
	dmaBytes := pk.IPLen() + ethernet.HeaderLen + DescOverhead
	start := a.eng.Now()
	if f := a.rxDMA.FreeAt(); f > start {
		start = f
	}
	bursts := a.bus.Config().Bursts(dmaBytes)
	chipset := a.memsys.DMAWriteTime(dmaBytes, bursts, start)
	busDone := a.bus.Transfer(dmaBytes, nil)
	service := chipset
	if stall := busDone - start; stall > service {
		service = stall
	}
	// Cut-through: the DMA write ran concurrently with reception (this
	// callback fires when the last bit arrived), so only the residual
	// beyond one wire serialization remains. Bus and memory occupancy are
	// charged in full above; only the latency component shrinks.
	if overlap := a.wireTime(pk); service > overlap {
		service -= overlap
	} else {
		service = rxResidual
	}
	a.rxDMA.SubmitCall(service, a.rxCb, pk)
}

// packetInHostMemory runs when the DMA write completes: the packet enters
// the coalescing window. Like the Intel adapter's RDTR/RADV pair, each
// arrival restarts the delay timer, but the interrupt fires no later than
// four delay periods after the batch's first packet.
func (a *Adapter) packetInHostMemory(pk *packet.Packet) {
	a.pending = append(a.pending, pk)
	if a.cfg.CoalesceDelay == 0 {
		a.fireIRQ()
		return
	}
	now := a.eng.Now()
	if len(a.pending) == 1 {
		a.batchFirstAt = now
	}
	fireAt := now + a.cfg.CoalesceDelay
	if cap := a.batchFirstAt + 4*a.cfg.CoalesceDelay; fireAt > cap {
		fireAt = cap
	}
	// Each arrival restarts the delay timer. Rescheduling in place skips
	// the cancel-and-push heap churn the old code paid per packet.
	if !a.coalesceTm.Reschedule(fireAt) {
		a.coalesceTm = a.eng.ScheduleCall(fireAt, a.irqCb, nil)
	}
}

// fireIRQ delivers the accumulated batch to the host.
func (a *Adapter) fireIRQ() {
	a.coalesceTm.Stop()
	if len(a.pending) == 0 {
		return
	}
	batch := a.pending
	a.pending = nil
	a.rxInFlight -= len(batch)
	a.Stats.Interrupts++
	if len(batch) > 1 {
		a.Stats.CoalescedPackets += int64(len(batch))
	}
	if a.irq == nil {
		panic("nic " + a.cfg.Name + ": interrupt with no handler")
	}
	a.irq(batch)
	// The host consumed the batch synchronously (onIRQ hands each packet to
	// a scheduled CPU job); nothing re-enters packetInHostMemory before this
	// returns, so the batch's backing array is free to hold the next window.
	if a.pending == nil {
		a.pending = batch[:0]
	}
}
