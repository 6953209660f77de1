package main

import (
	"container/heap"
	"time"
)

// Host times in the end-to-end metrics are scaled to a reference host
// speed. On a shared host the same pass's wall time drifts by 20-30%
// between runs minutes apart, as neighbours come and go; that drift would
// swamp any bound a change could be held to. So a run also times a fixed
// calibration kernel that shares no code with the simulator, right before
// and after each pass, and multiplies the pass's host times by refCalib
// over the median of those samples: the time the pass would have taken on
// a host where one calibration sample takes refCalib. Set-up repetitions,
// each followed by a sample, are scaled by the median of all of theirs. A change to the simulator moves the passes, never the
// kernel, so it moves the scaled times as it would the raw ones.
const (
	// refCalib is the reference host's time for one calibration sample,
	// about the median on a 2-vCPU cloud VM.
	refCalib = 20 * time.Millisecond
	// calibShare is how much of a piece of work's host time the samples
	// taken after it cover (at least one sample).
	calibShare = 0.08
)

const (
	calibPending = 1 << 14 // events in the kernel's queue: 1 MB, past most L2 caches
	calibSteps   = 50_000  // pops and pushes per sample
)

// calibEvent is one pending event of the calibration kernel.
type calibEvent struct {
	at, seq uint64
	data    [48]byte
}

type calibQueue []*calibEvent

func (q calibQueue) Len() int { return len(q) }
func (q calibQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q calibQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(x any)   { *q = append(*q, x.(*calibEvent)) }
func (q *calibQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calibrator runs the calibration kernel: a discrete-event loop over a heap
// of pending events, each popped, counted into a map and rescheduled. Its
// state is allocated once and reset per sample, so a sample allocates
// nothing and its time does not depend on the simulator's heap or on the
// collector.
type calibrator struct {
	events  []calibEvent
	queue   calibQueue
	counts  map[uint64]uint64
	sum     uint64    // keeps the kernel's result live
	samples []float64 // every sample's host time, s
}

func newCalibrator() *calibrator {
	return &calibrator{
		events: make([]calibEvent, calibPending),
		queue:  make(calibQueue, 0, calibPending),
		counts: make(map[uint64]uint64, 4096),
	}
}

// after times samples following a piece of work that took d, until they
// cover calibShare of d, and at least one. It returns their host times in
// seconds.
func (c *calibrator) after(d time.Duration) []float64 {
	var out []float64
	var spent time.Duration
	for spent == 0 || spent < time.Duration(calibShare*float64(d)) {
		t := c.sample()
		out = append(out, t.Seconds())
		spent += t
	}
	c.samples = append(c.samples, out...)
	return out
}

// sample runs the kernel once and returns its host time.
func (c *calibrator) sample() time.Duration {
	start := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // SplitMix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	c.queue = c.queue[:0]
	for i := range c.events {
		c.events[i] = calibEvent{at: next() % 1_000_000, seq: uint64(i)}
		c.queue = append(c.queue, &c.events[i])
	}
	heap.Init(&c.queue)
	clear(c.counts)
	var sum uint64
	for i := 0; i < calibSteps; i++ {
		e := heap.Pop(&c.queue).(*calibEvent)
		c.counts[e.seq%4093] += uint64(e.data[e.seq%48]) + 1
		sum += e.at
		e.at += next() % 10_000
		e.seq = uint64(calibPending + i)
		e.data[e.seq%48] = byte(sum)
		heap.Push(&c.queue, e)
	}
	c.sum += sum + uint64(len(c.counts))
	return time.Since(start)
}

// scale is the factor that turns host seconds spent between two sets of
// samples into the reference host's seconds.
func scale(before, after []float64) float64 {
	return refCalib.Seconds() / median(append(append([]float64(nil), before...), after...))
}
