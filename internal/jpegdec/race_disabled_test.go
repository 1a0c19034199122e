//go:build !race

package jpegdec

const raceEnabled = false
