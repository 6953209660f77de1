package paper

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"tengig/internal/units"
)

// Claim is one row of the paper's claims: what the paper says, which
// quantity of which experiment measures it, and the band the measurement
// must fall in.
type Claim struct {
	// ID is "experiment.name"; the experiment prefix is the section of
	// `sweep` output, and of EXPERIMENTS.md, that the row prints in.
	ID string
	// Sec is the paper's figure, table or section.
	Sec  string
	What string
	Of   Of
	Unit Unit
	// Paper is the paper's statement of the quantity.
	Paper Paper
	// Band is the accepted range; the zero Band means the row is only
	// reported.
	Band Band
	// Dev names the deviation that explains a gap between the paper and
	// this reproduction.
	Dev string
	// Readme puts the row in README's "Reproducing the paper" table.
	Readme bool
}

// Exp returns the ID of the experiment whose section the claim prints in.
func (c Claim) Exp() string {
	exp, _, _ := strings.Cut(c.ID, ".")
	return exp
}

// Of names the quantity a claim reads: one measured value, or a ratio,
// difference or percentage cost of two.
type Of struct {
	A, B string
	Op   byte // 0: A; '/': A/B; '-': A-B; '%': 100·(1-A/B), A's cost against B
}

func q(a string) Of              { return Of{A: a} }
func ratio(a, b string) Of       { return Of{A: a, B: b, Op: '/'} }
func minus(a, b string) Of       { return Of{A: a, B: b, Op: '-'} }
func costAgainst(a, b string) Of { return Of{A: a, B: b, Op: '%'} }

// Inputs returns the measured quantities the claim reads.
func (o Of) Inputs() []string {
	if o.Op == 0 {
		return []string{o.A}
	}
	return []string{o.A, o.B}
}

// Eval computes the quantity; ok is false when an input was not measured.
func (o Of) Eval(m Measured) (v float64, ok bool) {
	a, okA := m[o.A]
	if o.Op == 0 {
		return a, okA
	}
	b, okB := m[o.B]
	if !okA || !okB {
		return 0, false
	}
	switch o.Op {
	case '/':
		return a / b, true
	case '-':
		return a - b, true
	default:
		return 100 * (1 - a/b), true
	}
}

// Unit says how a quantity prints.
type Unit int

const (
	Gbps   Unit = iota
	Micros      // µs
	Millis      // ms
	Secs        // a duration in seconds, printed as a simulated time
	Pct
	Times // a dimensionless ratio
	Bytes
	Count
	PPS
	CPUs // load: CPUs busy
)

// unitStyles are each unit's measured precision and suffix.
var unitStyles = [...]struct {
	prec   int
	suffix string
}{
	Gbps: {3, " Gb/s"}, Micros: {2, " µs"}, Millis: {1, " ms"}, Pct: {1, "%"},
	Times: {3, "×"}, Bytes: {0, " B"}, Count: {0, ""}, PPS: {0, " pkt/s"}, CPUs: {2, ""},
}

// Format prints a measured value in the unit.
func (u Unit) Format(v float64) string {
	if u == Secs {
		return units.Time(v * float64(units.Second)).String()
	}
	st := unitStyles[u]
	return strconv.FormatFloat(v, 'f', st.prec, 64) + st.suffix
}

// num prints a paper value or band edge in its shortest form.
func (u Unit) num(v float64) string {
	if u == Secs {
		return units.Time(v * float64(units.Second)).String()
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Paper is the paper's statement: a number, a range, or only words.
type Paper struct {
	Lo, Hi float64 // equal for a single value
	Text   string  // the statement in words; "" prints the number
	num    bool
}

func is(v float64) Paper         { return Paper{Lo: v, Hi: v, num: true} }
func spans(lo, hi float64) Paper { return Paper{Lo: lo, Hi: hi, num: true} }
func says(text string) Paper     { return Paper{Text: text} }

// as quotes a numeric statement in the paper's own words.
func (p Paper) as(text string) Paper { p.Text = text; return p }

// Numeric reports whether the paper states a number or range.
func (p Paper) Numeric() bool { return p.num }

// Format prints the statement in the claim's unit.
func (p Paper) Format(u Unit) string {
	switch {
	case p.Text != "":
		return p.Text
	case !p.num:
		return "—"
	case p.Lo != p.Hi:
		return u.num(p.Lo) + "–" + u.num(p.Hi) + unitStyles[u].suffix
	default:
		return u.num(p.Lo) + unitStyles[u].suffix
	}
}

// Band is the accepted range of a measurement.
type Band struct {
	Lo, Hi float64
	// Strict excludes the edges themselves.
	Strict bool
	set    bool
}

func between(lo, hi float64) Band { return Band{Lo: lo, Hi: hi, set: true} }
func exactly(v float64) Band      { return between(v, v) }
func atLeast(v float64) Band      { return between(v, math.Inf(1)) }
func atMost(v float64) Band       { return between(math.Inf(-1), v) }
func above(v float64) Band        { return Band{Lo: v, Hi: math.Inf(1), Strict: true, set: true} }
func below(v float64) Band        { return Band{Lo: math.Inf(-1), Hi: v, Strict: true, set: true} }

// Set reports whether the band checks anything; an unset band reports.
func (b Band) Set() bool { return b.set }

// Holds reports whether v falls in the band.
func (b Band) Holds(v float64) bool {
	if b.Strict {
		return v > b.Lo && v < b.Hi
	}
	return v >= b.Lo && v <= b.Hi
}

// Format prints the band in the claim's unit.
func (b Band) Format(u Unit) string {
	lo, hi := math.IsInf(b.Lo, -1), math.IsInf(b.Hi, 1)
	switch {
	case !b.set:
		return "—"
	case lo && b.Strict:
		return "< " + u.num(b.Hi)
	case lo:
		return "≤ " + u.num(b.Hi)
	case hi && b.Strict:
		return "> " + u.num(b.Lo)
	case hi:
		return "≥ " + u.num(b.Lo)
	case b.Lo == b.Hi:
		return "= " + u.num(b.Lo)
	default:
		return "[" + u.num(b.Lo) + ", " + u.num(b.Hi) + "]"
	}
}

// Verdict is one claim evaluated against a run.
type Verdict struct {
	Claim
	Value    float64
	Measured bool // every input of the claim was measured
}

// OK reports whether the claim holds or is only reported.
func (v Verdict) OK() bool { return v.Measured && (!v.Band.Set() || v.Band.Holds(v.Value)) }

// Word is a measured verdict as printed: ok, FAIL or reported, with the
// deviation the claim names.
func (v Verdict) Word() string {
	w := "ok"
	switch {
	case !v.Band.Set():
		w = "reported"
	case !v.Band.Holds(v.Value):
		w = "FAIL"
	}
	if v.Dev != "" {
		w += ", " + v.Dev
	}
	return w
}

// Quote returns the paper's statement of claim id in the claim's unit, for
// tools that print it beside their own measurement.
func Quote(id string) string {
	for _, c := range Claims {
		if c.ID == id {
			return c.Paper.Format(c.Unit)
		}
	}
	panic("paper: no claim " + id)
}

// Evaluate checks every claim against m.
func Evaluate(m Measured) []Verdict {
	out := make([]Verdict, len(Claims))
	for i, c := range Claims {
		v, ok := c.Of.Eval(m)
		out[i] = Verdict{Claim: c, Value: v, Measured: ok}
	}
	return out
}

// PrintClaims writes experiment exp's claim rows whose inputs m holds, as
// `sweep` prints them after the experiment's data, followed by a blank
// line. Rows that read an experiment this run skipped are left out.
func PrintClaims(w io.Writer, exp string, m Measured) {
	var rows []Verdict
	for _, v := range Evaluate(m) {
		if v.Exp() == exp && v.Measured {
			rows = append(rows, v)
		}
	}
	if len(rows) == 0 {
		return
	}
	const format = "%-52s %-24s %-14s %-16s %s\n"
	fmt.Fprintf(w, format, "claim", "paper", "measured", "band", "verdict")
	for _, v := range rows {
		fmt.Fprintf(w, format, v.What, v.Paper.Format(v.Unit), v.Unit.Format(v.Value), v.Band.Format(v.Unit), v.Word())
	}
	fmt.Fprintln(w)
}
