// Package compare holds the §3.5.3 interconnect comparison: the published
// throughput/latency numbers for Gigabit Ethernet, Myrinet (GM and its
// TCP/IP emulation), and Quadrics QsNet (Elan3 and its TCP/IP), against
// which the paper positions its measured 10GbE results, plus the theoretical
// maxima drawn as reference lines in Figure 5.
package compare

import (
	"strings"

	"tengig/internal/units"
)

// Interconnect is one row of the comparison.
type Interconnect struct {
	Name string
	// API is the software interface measured ("TCP/IP" or the native API).
	API string
	// Throughput is sustained unidirectional bandwidth.
	Throughput units.Bandwidth
	// Latency is one-way end-to-end latency.
	Latency units.Time
	// TheoreticalMax is the hardware cap (Figure 5's reference lines).
	TheoreticalMax units.Bandwidth
	// Source describes provenance.
	Source string
}

// Key names the row in the quantities the paper's claims read: name and
// API in lower case, without slashes ("myrinet-gm", "qsnet-tcpip").
func (r Interconnect) Key() string {
	return strings.ToLower(r.Name + "-" + strings.ReplaceAll(r.API, "/", ""))
}

// Published returns the reference rows the paper quotes (its §3.5.3 and
// Figure 5): GbE near line rate with well-tuned chipsets, Myricom's
// published GM numbers and the Myrinet TCP/IP emulation, and the authors'
// QsNet experience with Elan3 and its TCP/IP implementation.
func Published() []Interconnect {
	return []Interconnect{
		{
			Name: "GbE", API: "TCP/IP",
			Throughput:     990 * units.MbitPerSecond,
			Latency:        31 * units.Microsecond,
			TheoreticalMax: units.GbitPerSecond,
			Source:         "authors' experience with Intel e1000 / Broadcom Tigon3",
		},
		{
			Name: "Myrinet", API: "GM",
			Throughput:     1984 * units.MbitPerSecond,
			Latency:        6500 * units.Nanosecond,
			TheoreticalMax: 2 * units.GbitPerSecond,
			Source:         "Myricom published numbers",
		},
		{
			Name: "Myrinet", API: "TCP/IP",
			Throughput:     1853 * units.MbitPerSecond,
			Latency:        31 * units.Microsecond,
			TheoreticalMax: 2 * units.GbitPerSecond,
			Source:         "Myricom published numbers (emulation layer)",
		},
		{
			Name: "QsNet", API: "Elan3",
			Throughput:     2456 * units.MbitPerSecond,
			Latency:        4900 * units.Nanosecond,
			TheoreticalMax: units.FromGbps(3.2),
			Source:         "authors' measurements",
		},
		{
			Name: "QsNet", API: "TCP/IP",
			Throughput:     2240 * units.MbitPerSecond,
			Latency:        29 * units.Microsecond,
			TheoreticalMax: units.FromGbps(3.2),
			Source:         "authors' measurements",
		},
	}
}

// TenGbETheoretical is Figure 5's 10GbE reference: the PCI-X bus cap, since
// the optics exceed what the host can move.
const TenGbETheoretical = units.Bandwidth(8_512_000_000)
