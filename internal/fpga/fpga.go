// Package fpga models the data-preparation accelerators of TrainBox:
// Xilinx XCVU9P FPGAs carrying a preparation engine (image or audio), an
// Ethernet+protocol clustering module, and a P2P handler (Figure 17).
//
// Three facets are modelled:
//
//   - resource accounting: per-engine LUT/FF/BRAM/DSP consumption,
//     reproducing Tables II and III;
//   - performance: a calibrated per-device preparation rate per input
//     type, used by the system model;
//   - function: an emulator implementing dataprep.Preparer with the same
//     kernels as the CPU path, so tests can assert offload produces
//     bit-identical samples.
package fpga

import (
	"fmt"

	"trainbox/internal/dataprep"
	"trainbox/internal/storage"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// DeviceSpec is an FPGA part's resource capacity.
type DeviceSpec struct {
	Name string
	LUTs int
	FFs  int
	BRAM int
	DSP  int
}

// XCVU9P is the Xilinx Virtex UltraScale+ part the paper prototypes on
// (Section VI-A), with its published resource counts.
func XCVU9P() DeviceSpec {
	return DeviceSpec{Name: "xcvu9p", LUTs: 1_182_240, FFs: 2_364_480, BRAM: 2_160, DSP: 6_840}
}

// Engine is one pipeline block on the FPGA with its resource cost.
type Engine struct {
	Name string
	LUTs int
	FFs  int
	BRAM int
	DSP  int
}

// ImageEngines returns the Table II configuration: the image data
// preparation engine set plus the shared clustering (Ethernet+protocol)
// and P2P handler blocks. Counts are the paper's, to the table's printed
// precision.
func ImageEngines() []Engine {
	return []Engine{
		{Name: "Jpeg decoder", LUTs: 704_000, FFs: 665_000, BRAM: 0, DSP: 1040},
		{Name: "Crop", LUTs: 500, FFs: 300, BRAM: 0, DSP: 27},
		{Name: "Mirror", LUTs: 6_500, FFs: 4_700, BRAM: 0, DSP: 381},
		{Name: "Gaussian noise", LUTs: 24_500, FFs: 33_000, BRAM: 80, DSP: 400},
		{Name: "Cast", LUTs: 5_700, FFs: 3_000, BRAM: 0, DSP: 240},
		{Name: "Ethernet + Protocol parser", LUTs: 166_000, FFs: 169_000, BRAM: 1024, DSP: 0},
		{Name: "P2P Handler", LUTs: 22_700, FFs: 24_700, BRAM: 153, DSP: 0},
	}
}

// AudioEngines returns the Table III configuration: the audio engine set
// plus the shared clustering and P2P blocks.
func AudioEngines() []Engine {
	return []Engine{
		{Name: "Spectrogram", LUTs: 622_000, FFs: 755_000, BRAM: 228, DSP: 0},
		{Name: "Masking", LUTs: 21_000, FFs: 17_000, BRAM: 53, DSP: 260},
		{Name: "Norm", LUTs: 14_000, FFs: 11_000, BRAM: 0, DSP: 0},
		{Name: "Mel Filter bank", LUTs: 103_000, FFs: 119_000, BRAM: 208, DSP: 572},
		{Name: "Ethernet + Protocol parser", LUTs: 166_000, FFs: 169_000, BRAM: 1024, DSP: 0},
		{Name: "P2P Handler", LUTs: 22_700, FFs: 24_700, BRAM: 153, DSP: 0},
	}
}

// Utilization is the fraction of each device resource a configuration
// consumes.
type Utilization struct {
	LUTs, FFs, BRAM, DSP float64
}

// Utilization sums the engines against the device capacity and reports
// per-resource fractions. It fails when any resource exceeds the device,
// which would mean the configuration does not place-and-route.
func (d DeviceSpec) Utilization(engines []Engine) (Utilization, error) {
	var l, f, b, ds int
	for _, e := range engines {
		l += e.LUTs
		f += e.FFs
		b += e.BRAM
		ds += e.DSP
	}
	u := Utilization{
		LUTs: float64(l) / float64(d.LUTs),
		FFs:  float64(f) / float64(d.FFs),
		BRAM: float64(b) / float64(d.BRAM),
		DSP:  float64(ds) / float64(d.DSP),
	}
	for name, v := range map[string]float64{"LUT": u.LUTs, "FF": u.FFs, "BRAM": u.BRAM, "DSP": u.DSP} {
		if v > 1 {
			return u, fmt.Errorf("fpga: %s over capacity on %s: %.1f%%", name, d.Name, v*100)
		}
	}
	return u, nil
}

// Per-device preparation throughput per input type, calibrated to the
// paper's prep-pool behaviour (Section VI-D): two in-box FPGAs must
// cover Inception-v4's per-box demand (8 × 1,669 samples/s) without the
// pool, while Transformer-SR needs ≈54% extra FPGA resources from the
// pool (2 × AudioPrepRate × 1.54 ≈ 8 × 2,001 samples/s).
const (
	// ImagePrepRate is one FPGA's image preparation throughput.
	ImagePrepRate units.SamplesPerSec = 8000
	// AudioPrepRate is one FPGA's audio preparation throughput. Audio is
	// slower per sample: Mel front-ends need many small FFTs.
	AudioPrepRate units.SamplesPerSec = 5200
	// VideoPrepRate is one FPGA's video-clip preparation throughput: a
	// 16-frame clip decodes ≈16 JPEG frames, so clips/s ≈ images/s ÷ 16.
	VideoPrepRate units.SamplesPerSec = 500
)

// PrepRate returns the per-FPGA preparation rate for an input type.
func PrepRate(t workload.InputType) units.SamplesPerSec {
	switch t {
	case workload.Audio:
		return AudioPrepRate
	case workload.Video:
		return VideoPrepRate
	default:
		return ImagePrepRate
	}
}

// Emulator implements dataprep.Preparer with the same kernels the CPU
// path uses — the reproduction's stand-in for the Verilog engines. Its
// contract (asserted in tests) is bit-identical output to the CPU
// preparer for equal seeds, which is what makes offload transparent to
// training.
type Emulator struct {
	Image *dataprep.ImageConfig
	Audio *dataprep.AudioConfig
}

// NewImageEmulator returns an emulator programmed with the image engine
// set.
func NewImageEmulator(cfg dataprep.ImageConfig) *Emulator {
	return &Emulator{Image: &cfg}
}

// Prepare implements dataprep.Preparer. Objects of the wrong kind for
// the programmed engine fail, mirroring a real FPGA whose bitstream only
// implements one pipeline (partial reconfiguration swaps it).
func (e *Emulator) Prepare(obj storage.Object, seed int64, s *dataprep.Scratch) dataprep.Prepared {
	switch {
	case e.Image != nil:
		return dataprep.ImagePreparer{Config: *e.Image}.Prepare(obj, seed, s)
	case e.Audio != nil:
		return dataprep.AudioPreparer{Config: *e.Audio}.Prepare(obj, seed, s)
	}
	return dataprep.Prepared{Key: obj.Key, Err: fmt.Errorf("fpga: emulator not programmed")}
}
