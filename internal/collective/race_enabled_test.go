//go:build race

package collective

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops a random share of its Puts.
const raceEnabled = true
