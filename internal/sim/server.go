package sim

import (
	"tengig/internal/units"
)

// Server models a non-preemptive FIFO resource: a CPU, a bus, a DMA engine, a
// wire. Work submitted to a Server starts as soon as all previously submitted
// work has finished, runs for its service time, and then fires its completion
// closure. Because completion order equals submission order, a chain of
// Servers forms a pipeline whose throughput is set by the slowest stage —
// exactly the host model described in DESIGN.md §5.
type Server struct {
	eng    *Engine
	name   string
	freeAt units.Time
	busy   units.Time // accumulated service time, for utilization
	jobs   uint64
}

// NewServer returns a Server bound to the engine. The name is used only for
// diagnostics.
func NewServer(eng *Engine, name string) *Server {
	return &Server{eng: eng, name: name}
}

// Name returns the diagnostic name.
func (s *Server) Name() string { return s.name }

// Submit enqueues work taking cost service time and schedules then (if
// non-nil) at its completion. It returns the completion time. Zero-cost work
// completes after all queued work, still in FIFO order.
func (s *Server) Submit(cost units.Time, then func()) units.Time {
	if cost < 0 {
		panic("sim: negative service cost on " + s.name)
	}
	start := s.eng.Now()
	if s.freeAt > start {
		start = s.freeAt
	}
	s.freeAt = start + cost
	s.busy += cost
	s.jobs++
	if then != nil {
		s.eng.Schedule(s.freeAt, then)
	}
	return s.freeAt
}

// SubmitCall is the closure-free twin of Submit: at completion it runs
// fn(arg) instead of a captured closure, so per-packet hot paths can submit
// work without allocating.
func (s *Server) SubmitCall(cost units.Time, fn func(any), arg any) units.Time {
	if cost < 0 {
		panic("sim: negative service cost on " + s.name)
	}
	start := s.eng.Now()
	if s.freeAt > start {
		start = s.freeAt
	}
	s.freeAt = start + cost
	s.busy += cost
	s.jobs++
	s.eng.ScheduleCall(s.freeAt, fn, arg)
	return s.freeAt
}

// FreeAt returns the time at which all currently queued work completes.
func (s *Server) FreeAt() units.Time { return s.freeAt }

// Backlog returns how much service time is queued ahead of a new submission.
func (s *Server) Backlog() units.Time {
	b := s.freeAt - s.eng.Now()
	if b < 0 {
		return 0
	}
	return b
}

// BusyTime returns the total service time ever submitted.
func (s *Server) BusyTime() units.Time { return s.busy }

// Jobs returns the number of submissions.
func (s *Server) Jobs() uint64 { return s.jobs }

// Utilization returns busy time divided by elapsed simulation time.
func (s *Server) Utilization() float64 {
	now := s.eng.Now()
	if now == 0 {
		return 0
	}
	u := s.busy.Seconds() / now.Seconds()
	if u > 1 {
		u = 1
	}
	return u
}

// Pipe is a Server that serializes byte payloads at a fixed bandwidth — a
// convenience for wires and buses whose service time is bytes/rate.
type Pipe struct {
	Server
	rate  units.Bandwidth
	bytes int64
}

// NewPipe returns a Pipe with the given serialization rate.
func NewPipe(eng *Engine, name string, rate units.Bandwidth) *Pipe {
	if rate <= 0 {
		panic("sim: pipe with non-positive rate: " + name)
	}
	p := &Pipe{rate: rate}
	p.Server = *NewServer(eng, name)
	return p
}

// Rate returns the pipe's bandwidth.
func (p *Pipe) Rate() units.Bandwidth { return p.rate }

// SetRate changes the pipe's bandwidth for subsequent submissions.
func (p *Pipe) SetRate(r units.Bandwidth) {
	if r <= 0 {
		panic("sim: pipe with non-positive rate: " + p.name)
	}
	p.rate = r
}

// Send enqueues n bytes and schedules then at their completion.
func (p *Pipe) Send(n int, then func()) units.Time {
	p.bytes += int64(n)
	return p.Submit(units.TimeToSend(n, p.rate), then)
}

// SendCall enqueues n bytes and schedules fn(arg) at their completion
// without allocating a closure.
func (p *Pipe) SendCall(n int, fn func(any), arg any) units.Time {
	p.bytes += int64(n)
	return p.SubmitCall(units.TimeToSend(n, p.rate), fn, arg)
}

// Bytes returns the total bytes ever submitted.
func (p *Pipe) Bytes() int64 { return p.bytes }
