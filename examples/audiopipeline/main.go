// audiopipeline runs the real audio front-end the paper's audio FPGA
// engine implements (Table III): synthetic Librispeech-like PCM streams
// → noise augmentation → STFT → Mel filterbank → log compression →
// SpecAugment masking → normalization, and prints the resulting feature
// geometry and the data-amplification factors the resource model relies
// on.
package main

import (
	"fmt"
	"log"
	"time"

	"trainbox/internal/dataprep"
	"trainbox/internal/dsp"
	"trainbox/internal/metrics"
	"trainbox/internal/report"
	"trainbox/internal/storage"
)

func main() {
	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildAudioDataset(store, 6, 4, 3); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d PCM streams of ~6.96 s, %v stored (mean %v/item)\n",
		store.Len(), store.UsedBytes(), store.MeanObjectSize())

	cfg := dataprep.DefaultAudioConfig()
	reg := metrics.NewRegistry()
	exec := dataprep.NewExecutor(dataprep.AudioPreparer{Config: cfg}, 0, 3).WithMetrics(reg)
	batch, err := exec.PrepareBatch(store, store.Keys(), 0)
	if err != nil {
		log.Fatal(err)
	}
	mel := batch[0].Audio
	fmt.Printf("log-Mel features: %d frames × %d channels per utterance\n", mel.Frames, mel.Bins)
	snap := reg.Snapshot()
	for _, stage := range []string{"fetch", "prepare"} {
		prefix := "pipeline.dataprep." + stage + "."
		fmt.Printf("  stage %s: items=%d busy=%v\n", stage, snap.Counters[prefix+"items"],
			time.Duration(snap.Histograms[prefix+"busy_ns"].Sum).Round(time.Microsecond))
	}
	fmt.Println()

	// Show the intermediate amplification the paper attributes memory
	// pressure to ("amplified data size due to ... SFFT").
	obj, err := store.Get(store.Keys()[0])
	if err != nil {
		log.Fatal(err)
	}
	signal, err := dsp.PCM16Decode(obj.Data)
	if err != nil {
		log.Fatal(err)
	}
	power, err := dsp.PowerSTFT(signal, cfg.Mel.STFT)
	if err != nil {
		log.Fatal(err)
	}
	t := report.NewTable("Per-utterance data volumes along the audio pipeline",
		"stage", "elements", "bytes (float32)")
	t.AddRowf("stored PCM16", len(signal), len(obj.Data))
	t.AddRowf("waveform", len(signal), 4*len(signal))
	t.AddRowf("power spectrogram", power.Frames*power.Bins, 4*power.Frames*power.Bins)
	t.AddRowf("log-Mel", mel.Frames*mel.Bins, 4*mel.Frames*mel.Bins)
	fmt.Println(t.String())

	// SpecAugment mask coverage: re-prepare without normalization so the
	// masked cells keep their fill value (0) and can be counted.
	rawCfg := cfg
	rawCfg.Normalize = false
	rawOut := dataprep.AudioPreparer{Config: rawCfg}.Prepare(obj, dataprep.SampleSeed(3, obj.Key, 0), nil)
	if rawOut.Err != nil {
		log.Fatal(rawOut.Err)
	}
	masked := 0
	for _, v := range rawOut.Audio.Data {
		if v == 0 {
			masked++
		}
	}
	fmt.Printf("SpecAugment masked %.1f%% of the first utterance's cells\n",
		100*float64(masked)/float64(len(rawOut.Audio.Data)))
	fmt.Println("(time and frequency masking per SpecAugment; widths are random per sample)")
}
