package jpegdec

import (
	"testing"

	"trainbox/internal/imgproc"
)

// BenchmarkDecoderReuse times one warm Decoder on a corpus-sized 256²
// q85 image: the 1×1 probe plus the full decode.
func BenchmarkDecoderReuse(b *testing.B) {
	data, err := imgproc.EncodeJPEG(imgproc.SynthesizeImage(imgproc.DefaultSynthConfig(), 7, 1), 85)
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder()
	if _, _, err := dec.Decode(data); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dec.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
