//go:build !race

package imgproc

const raceEnabled = false
