// Package units provides the physical quantities used throughout the
// simulator: simulated time, bandwidth, and byte sizes.
//
// Simulated time is an int64 count of picoseconds. At 10 Gb/s a single byte
// takes 800 ps to serialize, so picosecond resolution keeps per-byte wire
// timing exact using only integer arithmetic. The int64 range covers about
// 106 days of simulated time, far beyond any experiment in this repository.
package units

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated time, in picoseconds since the start of the
// simulation. It is also used for durations.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
)

// Forever is a sentinel meaning "no deadline". It is far larger than any
// schedulable time but small enough that adding small offsets cannot wrap.
const Forever Time = math.MaxInt64 / 4

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// FromSeconds converts a float number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// String formats the time with a human-friendly unit.
func (t Time) String() string {
	neg := ""
	v := t
	if v < 0 {
		neg = "-"
		v = -v
	}
	switch {
	case v == 0:
		return "0s"
	case v < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(v))
	case v < Microsecond:
		return fmt.Sprintf("%s%.3gns", neg, float64(v)/float64(Nanosecond))
	case v < Millisecond:
		return fmt.Sprintf("%s%.4gus", neg, float64(v)/float64(Microsecond))
	case v < Second:
		return fmt.Sprintf("%s%.4gms", neg, float64(v)/float64(Millisecond))
	case v < Minute:
		return fmt.Sprintf("%s%.4gs", neg, float64(v)/float64(Second))
	case v < Hour:
		return fmt.Sprintf("%s%dm%02ds", neg, int64(v/Minute), int64(v%Minute)/int64(Second))
	default:
		return fmt.Sprintf("%s%dh%02dm", neg, int64(v/Hour), int64(v%Hour)/int64(Minute))
	}
}

// Bandwidth is a data rate in bits per second.
type Bandwidth int64

// Common bandwidths.
const (
	BitPerSecond  Bandwidth = 1
	KbitPerSecond Bandwidth = 1000 * BitPerSecond
	MbitPerSecond Bandwidth = 1000 * KbitPerSecond
	GbitPerSecond Bandwidth = 1000 * MbitPerSecond
)

// Gbps returns the bandwidth as a floating-point number of gigabits/second.
func (b Bandwidth) Gbps() float64 { return float64(b) / float64(GbitPerSecond) }

// Mbps returns the bandwidth as a floating-point number of megabits/second.
func (b Bandwidth) Mbps() float64 { return float64(b) / float64(MbitPerSecond) }

// FromGbps converts a float number of Gb/s into a Bandwidth.
func FromGbps(g float64) Bandwidth {
	return Bandwidth(math.Round(g * float64(GbitPerSecond)))
}

// String formats the bandwidth with a human-friendly unit.
func (b Bandwidth) String() string {
	switch {
	case b >= GbitPerSecond:
		return fmt.Sprintf("%.4gGb/s", b.Gbps())
	case b >= MbitPerSecond:
		return fmt.Sprintf("%.4gMb/s", b.Mbps())
	case b >= KbitPerSecond:
		return fmt.Sprintf("%.4gKb/s", float64(b)/float64(KbitPerSecond))
	default:
		return fmt.Sprintf("%db/s", int64(b))
	}
}

// TimeToSend returns how long it takes to serialize n bytes at bandwidth b.
// It rounds up to the next picosecond so that back-to-back transmissions can
// never exceed the configured rate. Sending zero bytes takes zero time.
// Panics if b is not positive.
func TimeToSend(n int, b Bandwidth) Time {
	if b <= 0 {
		panic("units: TimeToSend with non-positive bandwidth")
	}
	if n <= 0 {
		return 0
	}
	nbits := int64(n) * 8
	// time_ps = bits * 1e12 / b. Split into whole seconds (exact integer
	// math) plus a sub-second remainder (remainder < b, so the float path
	// stays well inside 53-bit precision for any realistic bandwidth).
	// Every packet is far below a second of line rate, where the whole
	// seconds are 0 and the remainder is bits itself: skip the division.
	if nbits < int64(b) {
		return Time(float64(nbits)*float64(Second)/float64(b)) + 1
	}
	q := nbits / int64(b)
	r := nbits % int64(b)
	return Time(q)*Second + Time(float64(r)*float64(Second)/float64(b)) + 1
}

// BytesIn returns how many whole bytes can be serialized at bandwidth b in
// duration d.
func BytesIn(d Time, b Bandwidth) int64 {
	if d <= 0 || b <= 0 {
		return 0
	}
	// bytes = d * b / (8 * 1e12). Use float; values fit comfortably.
	return int64(d.Seconds() * float64(b) / 8)
}

// Throughput returns the bandwidth achieved by moving n bytes in duration d.
func Throughput(n int64, d Time) Bandwidth {
	if d <= 0 {
		return 0
	}
	return Bandwidth(math.Round(float64(n) * 8 / d.Seconds()))
}

// ByteSize is a number of bytes.
type ByteSize int64

// Common byte sizes.
const (
	Byte ByteSize = 1
	KB   ByteSize = 1024 * Byte
	MB   ByteSize = 1024 * KB
	GB   ByteSize = 1024 * MB
)

// String formats the size with a binary-prefix unit.
func (s ByteSize) String() string {
	switch {
	case s >= GB:
		return fmt.Sprintf("%.4gGB", float64(s)/float64(GB))
	case s >= MB:
		return fmt.Sprintf("%.4gMB", float64(s)/float64(MB))
	case s >= KB:
		return fmt.Sprintf("%.4gKB", float64(s)/float64(KB))
	default:
		return fmt.Sprintf("%dB", int64(s))
	}
}

// NextPow2 returns the smallest power of two >= n. NextPow2(0) == 1.
// Panics if n is negative or the result would overflow int64.
func NextPow2(n int64) int64 {
	if n < 0 {
		panic("units: NextPow2 of negative value")
	}
	if n > 1<<62 {
		panic("units: NextPow2 overflow")
	}
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len64(uint64(n-1))
}
