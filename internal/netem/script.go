package netem

import (
	"fmt"
	"sort"

	"tengig/internal/units"
)

// Fault is one declarative impairment setting: the full set of
// script-controllable knobs an Impair exposes, in a plain JSON-serializable
// struct so fault scripts can ride inside crash bundles and fuzz corpora.
// DropFn is deliberately absent — a function is a test instrument, not a
// link condition — and SetFault leaves it untouched.
type Fault struct {
	LossProb float64 `json:"loss_prob,omitempty"`
	// DropNth drops exactly the nth packet the stage sees (1-based, counted
	// from the stage's first packet, not from the step); 0 disables.
	DropNth      int64      `json:"drop_nth,omitempty"`
	GE           GEConfig   `json:"ge,omitempty"`
	CorruptProb  float64    `json:"corrupt_prob,omitempty"`
	DupProb      float64    `json:"dup_prob,omitempty"`
	ExtraDelay   units.Time `json:"extra_delay,omitempty"`
	ReorderProb  float64    `json:"reorder_prob,omitempty"`
	ReorderDelay units.Time `json:"reorder_delay,omitempty"`
	LinkDown     bool       `json:"link_down,omitempty"`
}

// Step switches the link to Fault at simulated time At.
type Step struct {
	At    units.Time `json:"at"`
	Fault Fault      `json:"fault"`
}

// Script is a time-ordered fault schedule for one link. The zero value is an
// empty script (no impairment changes).
type Script []Step

// Validate rejects scripts no link could exhibit: probabilities outside
// [0, 1], negative delays, a negative drop_nth, or negative step times.
func (s Script) Validate() error {
	for i, st := range s {
		if st.At < 0 {
			return fmt.Errorf("netem: step %d: negative time %v", i, st.At)
		}
		f := st.Fault
		for _, p := range []struct {
			name string
			v    float64
		}{
			{"loss_prob", f.LossProb},
			{"corrupt_prob", f.CorruptProb},
			{"dup_prob", f.DupProb},
			{"reorder_prob", f.ReorderProb},
			{"ge.p_good_bad", f.GE.PGoodBad},
			{"ge.p_bad_good", f.GE.PBadGood},
			{"ge.loss_good", f.GE.LossGood},
			{"ge.loss_bad", f.GE.LossBad},
		} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("netem: step %d: %s = %v outside [0,1]", i, p.name, p.v)
			}
		}
		if f.ExtraDelay < 0 || f.ReorderDelay < 0 {
			return fmt.Errorf("netem: step %d: negative delay", i)
		}
		if f.DropNth < 0 {
			return fmt.Errorf("netem: step %d: negative drop_nth %d", i, f.DropNth)
		}
	}
	return nil
}

// SetFault switches every script-controllable knob to f at once. DropFn
// and the Gilbert-Elliott state survive, so a script step that re-enables
// GE resumes the burst process rather than restarting it.
func (im *Impair) SetFault(f Fault) {
	im.LossProb = f.LossProb
	im.DropNth = f.DropNth
	im.GE = f.GE
	im.CorruptProb = f.CorruptProb
	im.DupProb = f.DupProb
	im.ExtraDelay = f.ExtraDelay
	im.ReorderProb = f.ReorderProb
	im.ReorderDelay = f.ReorderDelay
	im.linkDown = f.LinkDown
}

// SetScript installs s as the Impair's fault schedule, replacing any
// previous one. Steps take effect lazily: the first packet the Impair sees
// at or after a step's time switches the knobs before that packet is
// judged, which preserves the engine-time ordering timer-based scheduling
// had (a switch at time T precedes same-instant packets) while scheduling
// no engine events. That absence is load-bearing for parallel DES — a
// fault-scripted topology compiles to a quiescent engine, so replicated
// shards cannot diverge on script bookkeeping. A fault is only observable
// through the packets it impairs, so deferring an idle link's switch to
// the next arrival is outcome-identical.
func (im *Impair) SetScript(s Script) error {
	if err := s.Validate(); err != nil {
		return err
	}
	if len(s) == 0 {
		im.script, im.scriptIdx = nil, 0
		return nil
	}
	ordered := make([]Step, len(s))
	copy(ordered, s)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].At < ordered[j].At })
	im.script = ordered
	im.scriptIdx = 0
	return nil
}
