package imgproc

// NumDistinctCrops returns how many distinct w×h crop positions an
// image offers ((W−w+1)·(H−h+1)); used by the storage-overhead analysis.
func NumDistinctCrops(imW, imH, w, h int) int {
	if w > imW || h > imH {
		return 0
	}
	return (imW - w + 1) * (imH - h + 1)
}

// Tensor is a float32 CHW tensor: Data[c*H*W + y*W + x].
type Tensor struct {
	C, H, W int
	Data    []float32
}

// Bytes returns the tensor's memory footprint: 4·C·H·W. For a 224×224
// RGB image this is 602,112 bytes — the "amplified data size due to
// decompression and type casting" the paper attributes data-load traffic
// to (Section III-C).
func (t *Tensor) Bytes() int { return 4 * len(t.Data) }

// At returns the value at channel c, row y, column x.
func (t *Tensor) At(c, y, x int) float32 { return t.Data[c*t.H*t.W+y*t.W+x] }

// ImagenetMean and ImagenetStd are the conventional per-channel
// normalization constants for Imagenet-trained models.
var (
	ImagenetMean = []float64{0.485, 0.456, 0.406}
	ImagenetStd  = []float64{0.229, 0.224, 0.225}
)
