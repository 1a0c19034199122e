package units

import (
	"strings"
	"testing"
)

func TestBytesString(t *testing.T) {
	cases := map[Bytes]string{
		512:       "512 B",
		2 * KB:    "2.00 KiB",
		1536 * KB: "1.50 MiB",
		3 * GB:    "3.00 GiB",
		2 * TB:    "2.00 TiB",
		2200 * TB: "2.15 PiB",
		Bytes(0):  "0 B",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", float64(in), got, want)
		}
	}
}

func TestBytesPerSecString(t *testing.T) {
	cases := map[BytesPerSec]string{
		500:         "500 B/s",
		2 * KBps:    "2.00 KB/s",
		12.5 * GBps: "12.50 GB/s",
		239 * GBps:  "239.00 GB/s",
		1.5 * MBps:  "1.50 MB/s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", float64(in), got, want)
		}
	}
}

func TestSamplesPerSecString(t *testing.T) {
	if got := SamplesPerSec(7431).String(); !strings.Contains(got, "7431.0") {
		t.Errorf("String() = %q", got)
	}
}

func TestUnitRelations(t *testing.T) {
	if MB != 1024*KB || GB != 1024*MB || TB != 1024*GB || PB != 1024*TB {
		t.Error("binary prefixes inconsistent")
	}
	if GBps != 1000*MBps || MBps != 1000*KBps {
		t.Error("decimal prefixes inconsistent")
	}
}
