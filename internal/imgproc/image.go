// Package imgproc implements the image data-preparation substrate of the
// TrainBox reproduction: JPEG decode, cropping, mirroring, Gaussian
// noise, and float casting/normalization — the operation set of the
// paper's image FPGA engine (Table II) and of the CPU baseline.
//
// Images are 8-bit RGB with interleaved pixels (HWC layout), matching
// what a JPEG decoder emits; the final cast produces float32 CHW tensors,
// the layout neural network accelerators consume. The paper's Imagenet
// items are stored as 256×256 JPEGs and cropped to 224×224; those sizes
// are the package defaults.
package imgproc

import (
	"bytes"
	"fmt"
	"image"
	"image/color"
	"image/jpeg"
	"math/rand"
)

// Standard dataset geometry from the paper (Section III-B, Section III-D).
const (
	// StoredSize is the stored JPEG edge length (256×256).
	StoredSize = 256
	// ModelSize is the model input edge length after cropping (224×224).
	ModelSize = 224
)

// Image is an 8-bit RGB image with interleaved pixels: Pix[(y*W+x)*3+c].
type Image struct {
	W, H int
	Pix  []uint8
}

// NewImage allocates a zeroed W×H RGB image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("imgproc: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]uint8, w*h*3)}
}

// At returns the RGB triple at (x, y).
func (im *Image) At(x, y int) (r, g, b uint8) {
	i := (y*im.W + x) * 3
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2]
}

// Set stores the RGB triple at (x, y).
func (im *Image) Set(x, y int, r, g, b uint8) {
	i := (y*im.W + x) * 3
	im.Pix[i], im.Pix[i+1], im.Pix[i+2] = r, g, b
}

// SynthConfig controls synthetic image generation — the Imagenet
// stand-in. Images mix smooth gradients with rectangles and disks so the
// JPEG encoder produces realistically sized files.
type SynthConfig struct {
	Size    int // square edge length
	Shapes  int // rectangles + disks drawn over the gradient
	Quality int // JPEG encode quality
}

// DefaultSynthConfig matches the paper's stored dataset: 256×256 JPEG.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Size: StoredSize, Shapes: 12, Quality: 85}
}

// SynthesizeImage generates a deterministic procedural RGB image for a
// seed. The class label (0..9) influences the dominant hue so the tiny-NN
// experiments have learnable structure.
func SynthesizeImage(cfg SynthConfig, seed int64, class int) *Image {
	if cfg.Size <= 0 {
		cfg.Size = StoredSize
	}
	rng := rand.New(rand.NewSource(seed))
	im := NewImage(cfg.Size, cfg.Size)
	// Class-dependent base hue plus smooth spatial gradient.
	baseR := uint8(40 + (class*53)%180)
	baseG := uint8(40 + (class*97)%180)
	baseB := uint8(40 + (class*31)%180)
	for y := 0; y < cfg.Size; y++ {
		for x := 0; x < cfg.Size; x++ {
			gx := float64(x) / float64(cfg.Size)
			gy := float64(y) / float64(cfg.Size)
			im.Set(x, y,
				clampU8(float64(baseR)+60*gx),
				clampU8(float64(baseG)+60*gy),
				clampU8(float64(baseB)+30*(gx+gy)))
		}
	}
	// Shapes add high-frequency content.
	for s := 0; s < cfg.Shapes; s++ {
		cx, cy := rng.Intn(cfg.Size), rng.Intn(cfg.Size)
		radius := 4 + rng.Intn(cfg.Size/6)
		r8 := uint8(rng.Intn(256))
		g8 := uint8(rng.Intn(256))
		b8 := uint8(rng.Intn(256))
		disk := rng.Intn(2) == 0
		for y := maxInt(0, cy-radius); y < minInt(cfg.Size, cy+radius); y++ {
			for x := maxInt(0, cx-radius); x < minInt(cfg.Size, cx+radius); x++ {
				if disk {
					dx, dy := x-cx, y-cy
					if dx*dx+dy*dy > radius*radius {
						continue
					}
				}
				im.Set(x, y, r8, g8, b8)
			}
		}
	}
	return im
}

// SynthesizeStriped generates a deterministic striped image whose class
// is encoded in the stripe *frequency*, not in color: every class has the
// same mean intensity, so no crop-invariant sufficient statistic exists
// and a classifier must learn spatial structure. Random cropping shifts
// the stripe phase, which makes this family the canonical testbed for
// the augmentation-accuracy study (Figure 5): a model trained only on
// center crops ties itself to one phase and fails on shifted crops,
// while crop-augmented training sees all phases.
func SynthesizeStriped(cfg SynthConfig, seed int64, class int) *Image {
	if cfg.Size <= 0 {
		cfg.Size = StoredSize
	}
	rng := rand.New(rand.NewSource(seed))
	im := NewImage(cfg.Size, cfg.Size)
	period := 6 + 4*class    // class-coded spatial frequency
	phase := rng.Intn(3)     // slight per-image jitter; crops provide real phase diversity
	diag := rng.Intn(2) == 0 // per-image nuisance: stripe orientation mix
	for y := 0; y < cfg.Size; y++ {
		for x := 0; x < cfg.Size; x++ {
			pos := x + phase
			if diag {
				pos = x + y/2 + phase
			}
			v := uint8(88)
			if (pos/period)%2 == 0 {
				v = 168
			}
			im.Set(x, y, v, v, v)
		}
	}
	return im
}

func clampU8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// EncodeJPEG compresses the image at the given quality (1..100), the
// stored on-SSD format. This is also how the repo measures realistic
// compressed item sizes for the storage model.
func EncodeJPEG(im *Image, quality int) ([]byte, error) {
	rgba := image.NewRGBA(image.Rect(0, 0, im.W, im.H))
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			r, g, b := im.At(x, y)
			rgba.SetRGBA(x, y, color.RGBA{R: r, G: g, B: b, A: 255})
		}
	}
	var buf bytes.Buffer
	if err := jpeg.Encode(&buf, rgba, &jpeg.Options{Quality: quality}); err != nil {
		return nil, fmt.Errorf("imgproc: jpeg encode: %w", err)
	}
	return buf.Bytes(), nil
}
