package dataprep

import (
	"fmt"

	"trainbox/internal/imgproc"
	"trainbox/internal/storage"
)

// VideoConfig parameterizes the video pipeline — the paper's named
// future input form, prepared as: MJPEG decode → temporal subsampling →
// one consistent spatial crop + mirror across the clip → per-frame
// tensor cast. Spatial augmentation must be clip-consistent (the same
// crop window for every frame) or the motion signal is destroyed; that
// constraint is why video preparation is modelled as a single pipeline
// rather than per-frame image preparation.
type VideoConfig struct {
	// FramesPerClip is the temporal sample count fed to the model.
	FramesPerClip int
	CropW, CropH  int
	MirrorProb    float64
	Mean, Std     []float64
	Augment       bool
}

// DefaultVideoConfig returns a 16-frame, 224×224 clip pipeline.
func DefaultVideoConfig() VideoConfig {
	return VideoConfig{
		FramesPerClip: 16,
		CropW:         imgproc.ModelSize, CropH: imgproc.ModelSize,
		MirrorProb: 0.5,
		Mean:       imgproc.ImagenetMean, Std: imgproc.ImagenetStd,
		Augment: true,
	}
}

// VideoPreparer is the CPU video Preparer.
type VideoPreparer struct {
	Config VideoConfig
}

// Prepare implements Preparer.
func (p VideoPreparer) Prepare(obj storage.Object, seed int64, s *Scratch) Prepared {
	t, err := PrepareVideoScratch(obj.Data, p.Config, seed, s)
	return Prepared{Key: obj.Key, Label: obj.Label, Video: t, Err: err}
}

// BuildVideoDataset fills the store with n synthetic labelled MJPEG
// clips: keys "vid-%05d".
func BuildVideoDataset(store *storage.Store, n, numClasses, framesPerClip int, seed int64) error {
	if n <= 0 || numClasses <= 0 || framesPerClip <= 0 {
		return fmt.Errorf("dataprep: invalid video dataset shape n=%d classes=%d frames=%d",
			n, numClasses, framesPerClip)
	}
	cfg := imgproc.DefaultSynthConfig()
	for i := 0; i < n; i++ {
		clip, err := imgproc.SynthesizeVideo(cfg, seed+int64(i), i%numClasses, framesPerClip)
		if err != nil {
			return err
		}
		data, err := imgproc.EncodeMJPEG(clip, cfg.Quality)
		if err != nil {
			return err
		}
		if err := store.Put(storage.Object{
			Key:   fmt.Sprintf("vid-%05d", i),
			Label: i % numClasses,
			Data:  data,
		}); err != nil {
			return err
		}
	}
	return nil
}
