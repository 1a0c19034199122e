//go:build race

package jpegdec

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a random share of Puts.
const raceEnabled = true
