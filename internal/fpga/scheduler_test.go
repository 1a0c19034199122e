package fpga

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"trainbox/internal/units"
	"trainbox/internal/workload"
)

func TestSchedulePoolCoversAllWhenAmple(t *testing.T) {
	jobs := []JobRequest{
		{Name: "img", Type: workload.Image, RequiredRate: 50000, InBoxRate: 16000},
		{Name: "aud", Type: workload.Audio, RequiredRate: 16000, InBoxRate: 10400},
		{Name: "idle", Type: workload.Image, RequiredRate: 8000, InBoxRate: 16000},
	}
	allocs, err := SchedulePool(jobs, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range allocs {
		if !a.Satisfied {
			t.Errorf("job %d not satisfied with an ample pool: %+v", i, a)
		}
	}
	if allocs[2].GrantedFPGAs != 0 {
		t.Errorf("no-deficit job granted %v FPGAs", allocs[2].GrantedFPGAs)
	}
	// Image job: deficit 34000 at 8000/FPGA → 4.25 FPGA-equivalents.
	if math.Abs(allocs[0].GrantedFPGAs-4.25) > 1e-9 {
		t.Errorf("image grant = %v, want 4.25", allocs[0].GrantedFPGAs)
	}
	if math.Abs(float64(allocs[0].GrantedRate)-34000) > 1e-6 {
		t.Errorf("image granted rate = %v, want 34000", allocs[0].GrantedRate)
	}
}

func TestSchedulePoolContentionEqualFractions(t *testing.T) {
	jobs := []JobRequest{
		{Name: "a", Type: workload.Image, RequiredRate: 24000, InBoxRate: 16000}, // need 1
		{Name: "b", Type: workload.Image, RequiredRate: 40000, InBoxRate: 16000}, // need 3
	}
	allocs, err := SchedulePool(jobs, 2) // half of total need 4
	if err != nil {
		t.Fatal(err)
	}
	var granted float64
	for i, a := range allocs {
		granted += a.GrantedFPGAs
		if math.Abs(a.Fraction-0.5) > 1e-9 {
			t.Errorf("job %d fraction = %v, want 0.5", i, a.Fraction)
		}
		if a.Satisfied {
			t.Errorf("job %d reported satisfied under contention", i)
		}
	}
	if math.Abs(granted-2) > 1e-9 {
		t.Errorf("pool utilization = %v, want 2", granted)
	}
}

func TestSchedulePoolZeroPool(t *testing.T) {
	jobs := []JobRequest{{Name: "a", Type: workload.Audio, RequiredRate: 16000, InBoxRate: 10400}}
	allocs, err := SchedulePool(jobs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if allocs[0].GrantedFPGAs != 0 || allocs[0].Satisfied {
		t.Errorf("zero pool granted %+v", allocs[0])
	}
}

func TestSchedulePoolValidation(t *testing.T) {
	if _, err := SchedulePool(nil, -1); err == nil {
		t.Error("negative pool accepted")
	}
	if _, err := SchedulePool([]JobRequest{{RequiredRate: -1}}, 4); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestSchedulePoolProperties: never over-allocates, never grants more
// than a job's deficit, and uses the whole pool when demand exceeds it.
func TestSchedulePoolProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nJobs := 1 + rng.Intn(6)
		jobs := make([]JobRequest, nJobs)
		for i := range jobs {
			typ := workload.Image
			if rng.Intn(2) == 0 {
				typ = workload.Audio
			}
			jobs[i] = JobRequest{
				Name: "j", Type: typ,
				RequiredRate: units.SamplesPerSec(1000 * (1 + rng.Float64()*50)),
				InBoxRate:    units.SamplesPerSec(1000 * rng.Float64() * 30),
			}
		}
		pool := rng.Intn(12)
		allocs, err := SchedulePool(jobs, pool)
		if err != nil {
			return false
		}
		var used, totalNeed float64
		for i, a := range allocs {
			if a.GrantedFPGAs < -1e-12 {
				return false
			}
			if a.GrantedFPGAs > jobs[i].DeficitFPGAs()+1e-9 {
				return false // over-grant
			}
			used += a.GrantedFPGAs
			totalNeed += jobs[i].DeficitFPGAs()
		}
		if used > float64(pool)+1e-9 {
			return false // over-allocation
		}
		if totalNeed > float64(pool) && used < float64(pool)-1e-9 {
			return false // pool left idle under contention
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestJobRequestDeficit(t *testing.T) {
	j := JobRequest{Type: workload.Image, RequiredRate: 10000, InBoxRate: 16000}
	if j.Deficit() != 0 || j.DeficitFPGAs() != 0 {
		t.Error("surplus job should have zero deficit")
	}
	j.RequiredRate = 24000
	if j.Deficit() != 8000 {
		t.Errorf("deficit = %v", j.Deficit())
	}
	if math.Abs(j.DeficitFPGAs()-1) > 1e-12 {
		t.Errorf("deficit FPGAs = %v, want 1", j.DeficitFPGAs())
	}
}
