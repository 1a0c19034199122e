// Package units provides byte-size, bandwidth, and rate quantities used
// throughout the TrainBox models, together with human-readable formatting.
//
// All models in this repository express data volume in bytes (float64, so
// fractional per-sample accounting composes), bandwidth in bytes per
// second, and compute demand in core-seconds or engine-seconds. Using
// plain float64 named types keeps arithmetic free of conversion noise
// while the names document intent at API boundaries.
package units

import "fmt"

// Bytes is a data volume in bytes. Fractional values are legal: per-sample
// resource accounting frequently divides a batch across devices.
type Bytes float64

// Common byte quantities.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
	PB Bytes = 1 << 50
)

// String formats the volume with a binary-prefix unit, e.g. "1.50 MiB".
func (b Bytes) String() string {
	switch {
	case b >= PB:
		return fmt.Sprintf("%.2f PiB", float64(b/PB))
	case b >= TB:
		return fmt.Sprintf("%.2f TiB", float64(b/TB))
	case b >= GB:
		return fmt.Sprintf("%.2f GiB", float64(b/GB))
	case b >= MB:
		return fmt.Sprintf("%.2f MiB", float64(b/MB))
	case b >= KB:
		return fmt.Sprintf("%.2f KiB", float64(b/KB))
	}
	return fmt.Sprintf("%.0f B", float64(b))
}

// BytesPerSec is a bandwidth in bytes per second.
type BytesPerSec float64

// Common bandwidth quantities.
const (
	KBps BytesPerSec = 1e3
	MBps BytesPerSec = 1e6
	GBps BytesPerSec = 1e9
)

// String formats the bandwidth with a decimal-prefix unit, e.g. "12.5 GB/s".
func (r BytesPerSec) String() string {
	switch {
	case r >= GBps:
		return fmt.Sprintf("%.2f GB/s", float64(r/GBps))
	case r >= MBps:
		return fmt.Sprintf("%.2f MB/s", float64(r/MBps))
	case r >= KBps:
		return fmt.Sprintf("%.2f KB/s", float64(r/KBps))
	}
	return fmt.Sprintf("%.0f B/s", float64(r))
}

// SamplesPerSec is a throughput in training samples per second.
type SamplesPerSec float64

// String formats the rate, e.g. "7431.0 samples/s".
func (s SamplesPerSec) String() string {
	return fmt.Sprintf("%.1f samples/s", float64(s))
}
