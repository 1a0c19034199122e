package fpga

import (
	"math"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/eth"
	"trainbox/internal/storage"
	"trainbox/internal/units"
	"trainbox/internal/workload"
)

func TestTableIIImageUtilization(t *testing.T) {
	// Table II totals: LUT 78.7%, FF 38.1%, BRAM ≈51.5% (the paper's
	// P2P BRAM percentage is a typo — 153/2160 is 7.1%, giving a
	// consistent total of 58.2%; we accept either), DSP 30.5%.
	u, err := XCVU9P().Utilization(ImageEngines())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.LUTs-0.787) > 0.005 {
		t.Errorf("LUT utilization = %.3f, want 0.787", u.LUTs)
	}
	if math.Abs(u.FFs-0.381) > 0.005 {
		t.Errorf("FF utilization = %.3f, want 0.381", u.FFs)
	}
	if u.BRAM < 0.51 || u.BRAM > 0.59 {
		t.Errorf("BRAM utilization = %.3f, want 0.515–0.582", u.BRAM)
	}
	if math.Abs(u.DSP-0.305) > 0.005 {
		t.Errorf("DSP utilization = %.3f, want 0.305", u.DSP)
	}
}

func TestTableIIIAudioUtilization(t *testing.T) {
	// Table III totals: LUT 80.2%, FF 46.3%, BRAM 77.1%, DSP 12.2%.
	u, err := XCVU9P().Utilization(AudioEngines())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u.LUTs-0.802) > 0.005 {
		t.Errorf("LUT = %.3f, want 0.802", u.LUTs)
	}
	if math.Abs(u.FFs-0.463) > 0.005 {
		t.Errorf("FF = %.3f, want 0.463", u.FFs)
	}
	if math.Abs(u.BRAM-0.771) > 0.01 {
		t.Errorf("BRAM = %.3f, want 0.771", u.BRAM)
	}
	if math.Abs(u.DSP-0.122) > 0.005 {
		t.Errorf("DSP = %.3f, want 0.122", u.DSP)
	}
}

func TestJpegDecoderDominatesImageLUTs(t *testing.T) {
	// Section VI-B: "the JPEG decoder takes most of the resources due to
	// its high complexity."
	engines := ImageEngines()
	var jpegLUTs, totalLUTs int
	for _, e := range engines {
		totalLUTs += e.LUTs
		if e.Name == "Jpeg decoder" {
			jpegLUTs = e.LUTs
		}
	}
	if jpegLUTs*2 < totalLUTs {
		t.Errorf("JPEG decoder has %d of %d LUTs, should dominate", jpegLUTs, totalLUTs)
	}
}

func TestUtilizationOverCapacityFails(t *testing.T) {
	tiny := DeviceSpec{Name: "tiny", LUTs: 1000, FFs: 1000, BRAM: 10, DSP: 10}
	if _, err := tiny.Utilization(ImageEngines()); err == nil {
		t.Error("over-capacity configuration accepted")
	}
}

func TestPrepRates(t *testing.T) {
	if PrepRate(workload.Image) != ImagePrepRate || PrepRate(workload.Audio) != AudioPrepRate {
		t.Error("PrepRate selector wrong")
	}
	if AudioPrepRate >= ImagePrepRate {
		t.Error("audio prep should be slower per FPGA than image prep")
	}
}

// TestEmulatorBitIdenticalWithCPUPath is the offload-correctness
// property: the FPGA emulator must produce bit-identical prepared
// samples to the CPU preparer for the same seed.
func TestEmulatorBitIdenticalWithCPUPath(t *testing.T) {
	imgStore := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(imgStore, 4, 10, 3); err != nil {
		t.Fatal(err)
	}
	cfg := dataprep.DefaultImageConfig()
	cpu := dataprep.ImagePreparer{Config: cfg}
	dev := NewImageEmulator(cfg)
	for _, key := range imgStore.Keys() {
		obj, _ := imgStore.Get(key)
		seed := dataprep.SampleSeed(1, key, 0)
		a := cpu.Prepare(obj, seed, nil)
		b := dev.Prepare(obj, seed, nil)
		if a.Err != nil || b.Err != nil {
			t.Fatal(a.Err, b.Err)
		}
		for i := range a.Image.Data {
			if a.Image.Data[i] != b.Image.Data[i] {
				t.Fatalf("%s: CPU and FPGA outputs diverge at %d", key, i)
			}
		}
	}

	audStore := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildAudioDataset(audStore, 2, 10, 3); err != nil {
		t.Fatal(err)
	}
	acfg := dataprep.DefaultAudioConfig()
	cpuA := dataprep.AudioPreparer{Config: acfg}
	devA := &Emulator{Audio: &acfg}
	for _, key := range audStore.Keys() {
		obj, _ := audStore.Get(key)
		seed := dataprep.SampleSeed(1, key, 0)
		a := cpuA.Prepare(obj, seed, nil)
		b := devA.Prepare(obj, seed, nil)
		if a.Err != nil || b.Err != nil {
			t.Fatal(a.Err, b.Err)
		}
		for i := range a.Audio.Data {
			if a.Audio.Data[i] != b.Audio.Data[i] {
				t.Fatalf("%s: CPU and FPGA audio outputs diverge at %d", key, i)
			}
		}
	}

	bad := &Emulator{}
	if out := bad.Prepare(storage.Object{Key: "x"}, 1, nil); out.Err == nil {
		t.Error("unprogrammed emulator prepared a sample")
	}
}

func newPoolNet(t *testing.T, ports int) *eth.Network {
	t.Helper()
	n, err := eth.NewNetwork(eth.Link100G, eth.SwitchSpec{Ports: ports})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestSizePoolInceptionNeedsNoPool(t *testing.T) {
	// Section VI-D: "Inception-v4 reaches the target throughput without
	// the prep-pool". Per box: 8 accels × 1,669 samples/s, 2 FPGAs.
	w, _ := workload.ByName("Inception-v4")
	alloc, err := SizePool(PoolRequest{
		RequiredRate: units.SamplesPerSec(8 * float64(w.AccelRate)),
		InBoxFPGAs:   2, Type: workload.Image,
		OffloadBytesPerSample: w.Prep.StoredBytes + w.Prep.TensorBytes,
	}, newPoolNet(t, 16), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Satisfied || alloc.PoolFPGAs != 0 {
		t.Errorf("Inception allocation = %+v, want satisfied with no pool", alloc)
	}
}

func TestSizePoolTFSRNeeds54PercentExtra(t *testing.T) {
	// Section VI-D: "the prep-pool provides the additional performance
	// improvement with 54% more FPGA resources".
	w, _ := workload.ByName("TF-SR")
	alloc, err := SizePool(PoolRequest{
		RequiredRate: units.SamplesPerSec(8 * float64(w.AccelRate)),
		InBoxFPGAs:   2, Type: workload.Audio,
		OffloadBytesPerSample: w.Prep.StoredBytes + w.Prep.TensorBytes,
	}, newPoolNet(t, 16), 64)
	if err != nil {
		t.Fatal(err)
	}
	if !alloc.Satisfied {
		t.Fatalf("TF-SR not satisfied: %+v", alloc)
	}
	if math.Abs(alloc.ExtraResourceFraction-0.54) > 0.05 {
		t.Errorf("extra FPGA fraction = %.2f, want ≈0.54", alloc.ExtraResourceFraction)
	}
	if alloc.PoolFPGAs != 2 {
		t.Errorf("whole-device pool allocation = %d, want 2 (ceil of 2×0.54)", alloc.PoolFPGAs)
	}
}

func TestSizePoolWithoutNetworkFails(t *testing.T) {
	w, _ := workload.ByName("TF-SR")
	_, err := SizePool(PoolRequest{
		RequiredRate: units.SamplesPerSec(8 * float64(w.AccelRate)),
		InBoxFPGAs:   2, Type: workload.Audio,
	}, nil, 0)
	if err == nil {
		t.Error("deficit without pool network accepted")
	}
	// A self-sufficient box needs no network at all.
	alloc, err := SizePool(PoolRequest{RequiredRate: 100, InBoxFPGAs: 1, Type: workload.Image}, nil, 0)
	if err != nil || !alloc.Satisfied {
		t.Errorf("self-sufficient box failed: %v %+v", err, alloc)
	}
}

func TestSizePoolCappedByAvailability(t *testing.T) {
	alloc, err := SizePool(PoolRequest{
		RequiredRate: 100_000, InBoxFPGAs: 1, Type: workload.Audio,
	}, newPoolNet(t, 16), 2)
	if err != nil {
		t.Fatal(err)
	}
	if alloc.Satisfied {
		t.Error("starved pool reported satisfied")
	}
	if alloc.PoolFPGAs != 2 {
		t.Errorf("pool allocation = %d, want all 2 available", alloc.PoolFPGAs)
	}
}

func TestSizePoolEthernetCeiling(t *testing.T) {
	// Huge per-sample offload volume throttles pooled throughput to the
	// port bandwidth.
	alloc, err := SizePool(PoolRequest{
		RequiredRate: 20_000, InBoxFPGAs: 1, Type: workload.Audio,
		OffloadBytesPerSample: 10 * units.MB,
	}, newPoolNet(t, 16), 64)
	if err != nil {
		t.Fatal(err)
	}
	maxByEth := float64(eth.Link100G.Bandwidth) / float64(10*units.MB)
	if float64(alloc.PoolRate) > maxByEth*1.001 {
		t.Errorf("pool rate %v exceeds Ethernet ceiling %v", alloc.PoolRate, maxByEth)
	}
	if alloc.Satisfied {
		t.Error("Ethernet-throttled allocation reported satisfied")
	}
}

func TestSizePoolRejectsNegatives(t *testing.T) {
	if _, err := SizePool(PoolRequest{InBoxFPGAs: -1}, nil, 0); err == nil {
		t.Error("negative in-box count accepted")
	}
	if _, err := SizePool(PoolRequest{RequiredRate: -5, InBoxFPGAs: 1}, nil, 0); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := SizePool(PoolRequest{InBoxFPGAs: 1}, nil, -1); err == nil {
		t.Error("negative availability accepted")
	}
}
