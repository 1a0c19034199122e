// Package workload defines the seven neural-network training workloads of
// the paper's Table I together with their per-sample data-preparation
// resource demands — the calibration constants that drive every
// experiment in the reproduction.
//
// # Calibration methodology
//
// The paper profiles a hardware prototype (Xeon host + Caffe/DALI, TPU
// v3-8 cloud measurements) and feeds the measured per-sample costs into a
// system-level simulator (Section VI-A). This reproduction does the same
// with two sources:
//
//   - Table I constants are copied verbatim (accelerator throughput,
//     batch size, model size).
//   - Per-sample CPU costs are calibrated so the baseline saturates at
//     the accelerator counts the paper reports (Figure 8: "after 18
//     neural network accelerators"; Figure 21: Inception-v4 at 18.3,
//     Transformer-SR at 4.4), and per-sample byte volumes follow the
//     dataset geometry (256×256 JPEG → 224×224 float32 CHW tensors;
//     6.96 s PCM → log-Mel features) plus the Figure 11 decomposition
//     shares (image data load ≈ 36.7% of memory traffic, audio ≈ 21.1%).
//
// The real Go kernels in internal/imgproc and internal/dsp exercise the
// same operations functionally; cmd/dataprep-prof measures their raw Go
// throughput, but the system model intentionally uses the calibrated
// constants above so results represent DALI-class optimized kernels, not
// Go's JPEG decoder.
package workload

import (
	"fmt"

	"trainbox/internal/units"
)

// InputType distinguishes the two dataset families of Table I.
type InputType int

// Input types. Video is the paper's named future input form (Section
// V-C); it appears only in FutureWorkloads, never in the Table I set.
const (
	Image InputType = iota
	Audio
	Video
)

func (t InputType) String() string {
	switch t {
	case Image:
		return "image"
	case Audio:
		return "audio"
	case Video:
		return "video"
	}
	return fmt.Sprintf("input(%d)", int(t))
}

// PrepOp is one category of data-preparation work, matching the stacked
// components of Figures 11 and 22.
type PrepOp int

// Preparation operation categories.
const (
	OpSSDRead PrepOp = iota // reading the stored item from flash
	OpFormat                // decode/crop/cast or STFT/Mel ("data formatting")
	OpAugment               // mirror/noise or masking ("data augmentation")
	OpLoad                  // staging the prepared tensor to the accelerator
	OpOther                 // driver and framework overhead
	numPrepOps
)

func (op PrepOp) String() string {
	switch op {
	case OpSSDRead:
		return "ssd-read"
	case OpFormat:
		return "data-formatting"
	case OpAugment:
		return "data-augmentation"
	case OpLoad:
		return "data-load"
	case OpOther:
		return "others"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// PrepOps lists the categories in display order.
func PrepOps() []PrepOp {
	return []PrepOp{OpSSDRead, OpFormat, OpAugment, OpLoad, OpOther}
}

// PrepProfile is the per-sample data-preparation demand of a workload.
type PrepProfile struct {
	// StoredBytes is the on-SSD item size (compressed JPEG / PCM).
	StoredBytes units.Bytes
	// TensorBytes is the prepared sample delivered to the accelerator.
	TensorBytes units.Bytes
	// CPUSeconds decomposes host CPU core-seconds per sample by category.
	CPUSeconds [numPrepOps]float64
	// MemoryBytes decomposes host DRAM traffic per sample by category.
	MemoryBytes [numPrepOps]units.Bytes
}

// TotalCPUSeconds sums the per-category CPU demand.
func (p PrepProfile) TotalCPUSeconds() float64 {
	var s float64
	for _, v := range p.CPUSeconds {
		s += v
	}
	return s
}

// TotalMemoryBytes sums the per-category DRAM traffic.
func (p PrepProfile) TotalMemoryBytes() units.Bytes {
	var s units.Bytes
	for _, v := range p.MemoryBytes {
		s += v
	}
	return s
}

// Workload is one Table I row plus its preparation profile.
type Workload struct {
	Name string
	// Kind is the network family (CNN, RNN, Transformer) as in Table I.
	Kind string
	// Task is the application label from Table I.
	Task string
	Type InputType
	// BatchSize is the largest per-accelerator batch a TPU v3-8 runs.
	BatchSize int
	// ModelBytes is the parameter footprint synchronized each step.
	ModelBytes units.Bytes
	// AccelRate is the measured TPU v3-8 throughput (Table I).
	AccelRate units.SamplesPerSec
	// Prep is the per-sample preparation demand.
	Prep PrepProfile
	// BatchHalfSat is the batch size at which the accelerator reaches
	// half its peak rate; models the efficiency curve behind Figure 20
	// ("better efficiency of neural network accelerators ... with a
	// larger batch").
	BatchHalfSat float64
}

// Validate reports the first inconsistency in the workload definition.
func (w Workload) Validate() error {
	if w.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if w.BatchSize <= 0 {
		return fmt.Errorf("workload %s: batch size %d", w.Name, w.BatchSize)
	}
	if w.ModelBytes <= 0 {
		return fmt.Errorf("workload %s: model bytes %v", w.Name, w.ModelBytes)
	}
	if w.AccelRate <= 0 {
		return fmt.Errorf("workload %s: accel rate %v", w.Name, w.AccelRate)
	}
	if w.Prep.StoredBytes <= 0 || w.Prep.TensorBytes <= 0 {
		return fmt.Errorf("workload %s: non-positive prep volumes", w.Name)
	}
	if w.Prep.TotalCPUSeconds() <= 0 {
		return fmt.Errorf("workload %s: no CPU demand", w.Name)
	}
	if w.BatchHalfSat <= 0 {
		return fmt.Errorf("workload %s: batch half-saturation %v", w.Name, w.BatchHalfSat)
	}
	return nil
}

// EffectiveAccelRate returns the accelerator throughput at the given
// batch size: peak · b/(b+halfSat), normalized so the Table I batch size
// delivers exactly the Table I rate.
func (w Workload) EffectiveAccelRate(batch int) units.SamplesPerSec {
	if batch <= 0 {
		return 0
	}
	b := float64(batch)
	tableB := float64(w.BatchSize)
	curve := b / (b + w.BatchHalfSat)
	atTable := tableB / (tableB + w.BatchHalfSat)
	return units.SamplesPerSec(float64(w.AccelRate) * curve / atTable)
}

// imageProfile builds the shared image preparation profile (Imagenet,
// 256×256 JPEG → crop/mirror/noise/cast) for a total per-sample CPU cost,
// with the tensor size parameterizing models with larger inputs
// (Inception-v4 uses 299×299).
//
// CPU shares: formatting 62%, augmentation 28%, load 7%, other 3% —
// formatting dominated by JPEG decode (Figure 11a). Memory traffic:
// stored item in+out of the ingest buffer, decode/augment passes, and a
// data-load share matching Figure 11a's ≈36.7%.
func imageProfile(cpuSeconds float64, tensorBytes units.Bytes) PrepProfile {
	const stored = 45 * units.KB // 256×256 JPEG at quality ≈85
	p := PrepProfile{StoredBytes: stored, TensorBytes: tensorBytes}
	p.CPUSeconds[OpFormat] = 0.62 * cpuSeconds
	p.CPUSeconds[OpAugment] = 0.28 * cpuSeconds
	p.CPUSeconds[OpLoad] = 0.07 * cpuSeconds
	p.CPUSeconds[OpOther] = 0.03 * cpuSeconds
	p.MemoryBytes[OpSSDRead] = 2 * stored     // DMA write + first read
	p.MemoryBytes[OpFormat] = 700 * units.KB  // decode write + crop/cast passes
	p.MemoryBytes[OpAugment] = 270 * units.KB // mirror + noise passes
	p.MemoryBytes[OpLoad] = tensorBytes       // DMA read to the accelerator
	p.MemoryBytes[OpOther] = 20 * units.KB    // descriptors, queues
	return p
}

// audioProfile builds the audio preparation profile (Librispeech-class,
// 6.96 s PCM → STFT → Mel → masking → normalize). CPU shares: formatting
// 72% (many small FFTs), augmentation 18%, load 6%, other 4%. Memory
// traffic is dominated by STFT intermediates ("amplified data size due
// to ... SFFT", Section III-C); the data-load share matches Figure 11b's
// ≈21.1%.
func audioProfile(cpuSeconds float64) PrepProfile {
	const stored = 223 * units.KB  // 6.96 s × 16 kHz × 2 B
	const tensor = 1250 * units.KB // spectrogram + feature stacking, float32
	p := PrepProfile{StoredBytes: stored, TensorBytes: tensor}
	p.CPUSeconds[OpFormat] = 0.72 * cpuSeconds
	p.CPUSeconds[OpAugment] = 0.18 * cpuSeconds
	p.CPUSeconds[OpLoad] = 0.06 * cpuSeconds
	p.CPUSeconds[OpOther] = 0.04 * cpuSeconds
	p.MemoryBytes[OpSSDRead] = 2 * stored
	p.MemoryBytes[OpFormat] = 3700 * units.KB // complex STFT + filterbank passes
	p.MemoryBytes[OpAugment] = 460 * units.KB
	p.MemoryBytes[OpLoad] = tensor
	p.MemoryBytes[OpOther] = 180 * units.KB
	return p
}

// Tensor sizes: float32 CHW for the two input geometries.
const (
	tensor224 = units.Bytes(3 * 224 * 224 * 4) // 602,112 B
	tensor299 = units.Bytes(3 * 299 * 299 * 4) // 1,072,812 B
)

// Workloads returns the seven Table I workloads in table order.
//
// Per-sample CPU seconds are calibrated to the baseline saturation points
// (see package comment): VGG-19 1.425 ms, ResNet-50 0.788 ms,
// Inception-v4 1.571 ms, RNN-S 0.868 ms, RNN-L 1.232 ms, TF-SR 5.45 ms,
// TF-AA 5.93 ms. Audio preparation costs several times more CPU than
// image preparation, matching the paper's observation that "the audio
// preparation requires much higher computation capability than images".
func Workloads() []Workload {
	return []Workload{
		{
			Name: "VGG-19", Kind: "CNN", Task: "Image classification", Type: Image,
			BatchSize: 2048, ModelBytes: units.Bytes(548.0 * 1e6), AccelRate: 3062,
			Prep: imageProfile(1.425e-3, tensor224), BatchHalfSat: 96,
		},
		{
			Name: "Resnet-50", Kind: "CNN", Task: "Image classification", Type: Image,
			BatchSize: 8192, ModelBytes: units.Bytes(97.5 * 1e6), AccelRate: 7431,
			Prep: imageProfile(7.88e-4, tensor224), BatchHalfSat: 256,
		},
		{
			Name: "Inception-v4", Kind: "CNN", Task: "Image classification", Type: Image,
			BatchSize: 2048, ModelBytes: units.Bytes(162.7 * 1e6), AccelRate: 1669,
			Prep: imageProfile(1.571e-3, tensor299), BatchHalfSat: 96,
		},
		{
			Name: "RNN-S", Kind: "RNN", Task: "Image captioning", Type: Image,
			BatchSize: 4096, ModelBytes: units.Bytes(1.0 * 1e6), AccelRate: 12022,
			Prep: imageProfile(8.68e-4, tensor224), BatchHalfSat: 128,
		},
		{
			Name: "RNN-L", Kind: "RNN", Task: "Image captioning", Type: Image,
			BatchSize: 2048, ModelBytes: units.Bytes(16.0 * 1e6), AccelRate: 6495,
			Prep: imageProfile(1.232e-3, tensor224), BatchHalfSat: 96,
		},
		{
			Name: "TF-SR", Kind: "Transformer", Task: "Speech recognition", Type: Audio,
			BatchSize: 512, ModelBytes: units.Bytes(268.3 * 1e6), AccelRate: 2001,
			Prep: audioProfile(5.45e-3), BatchHalfSat: 48,
		},
		{
			Name: "TF-AA", Kind: "Transformer", Task: "Audio analysis", Type: Audio,
			BatchSize: 512, ModelBytes: units.Bytes(162.5 * 1e6), AccelRate: 2889,
			Prep: audioProfile(5.93e-3), BatchHalfSat: 48,
		},
	}
}

// ByName returns the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown workload %q", name)
}

// TargetAccelerators is the paper's scale target: 256 TPU v3-8-class
// accelerators (Section III-B, following [16]).
const TargetAccelerators = 256
