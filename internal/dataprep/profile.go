package dataprep

import (
	"fmt"
	"time"

	"trainbox/internal/storage"
)

// ProfileResult is the measured cost of one pipeline on this machine —
// the reproduction's analogue of the paper's prototype profiling
// (Section VI-A: "we built a performance model of TrainBox by profiling
// the prototype").
type ProfileResult struct {
	Samples       int
	Elapsed       time.Duration
	PerSample     time.Duration
	SamplesPerSec float64
	Workers       int
}

// Profile measures wall-clock throughput of the executor over the keyed
// objects, repeating epochs until at least minSamples samples have been
// prepared.
func (e *Executor) Profile(store *storage.Store, keys []string, minSamples int) (ProfileResult, error) {
	if len(keys) == 0 {
		return ProfileResult{}, fmt.Errorf("dataprep: no keys to profile")
	}
	if minSamples <= 0 {
		return ProfileResult{}, fmt.Errorf("dataprep: profile needs a positive sample count, got %d", minSamples)
	}
	start := time.Now()
	done := 0
	epoch := 0
	for done < minSamples {
		if _, err := e.PrepareBatch(store, keys, epoch); err != nil {
			return ProfileResult{}, err
		}
		done += len(keys)
		epoch++
	}
	elapsed := time.Since(start)
	return ProfileResult{
		Samples:       done,
		Elapsed:       elapsed,
		PerSample:     elapsed / time.Duration(done),
		SamplesPerSec: float64(done) / elapsed.Seconds(),
		Workers:       e.workers,
	}, nil
}
