package fpga

import (
	"fmt"
	"sort"

	"trainbox/internal/units"
	"trainbox/internal/workload"
)

// JobRequest is one training job's claim on the shared prep-pool
// (Section V-D: the pool serves multiple jobs, with underutilized train
// boxes' FPGAs contributing capacity).
type JobRequest struct {
	Name string
	Type workload.InputType
	// RequiredRate is the preparation throughput the job needs.
	RequiredRate units.SamplesPerSec
	// InBoxRate is the job's own train boxes' aggregate FPGA throughput.
	InBoxRate units.SamplesPerSec
}

// Deficit returns the preparation rate the job needs from the pool.
func (j JobRequest) Deficit() units.SamplesPerSec {
	d := j.RequiredRate - j.InBoxRate
	if d < 0 {
		return 0
	}
	return d
}

// DeficitFPGAs returns the pool FPGA-equivalents that cover the deficit.
func (j JobRequest) DeficitFPGAs() float64 {
	return float64(j.Deficit()) / float64(PrepRate(j.Type))
}

// JobAllocation is the scheduler's grant for one job.
type JobAllocation struct {
	Name string
	// GrantedFPGAs is the (fractional) pool capacity assigned.
	GrantedFPGAs float64
	// GrantedRate is the preparation rate the grant adds.
	GrantedRate units.SamplesPerSec
	// Satisfied reports whether in-box + grant meets the requirement.
	Satisfied bool
	// Fraction is grant/deficit (1 when fully covered, 0 when no
	// deficit existed).
	Fraction float64
}

// SchedulePool divides poolFPGAs across competing jobs. When the pool
// covers every deficit, each job gets exactly its deficit. Under
// contention the allocation is max-min fair on the *fraction of deficit
// covered*: no job's fraction can rise without lowering a poorer job's —
// the pool analogue of the PCIe bandwidth policy.
func SchedulePool(jobs []JobRequest, poolFPGAs int) ([]JobAllocation, error) {
	if poolFPGAs < 0 {
		return nil, fmt.Errorf("fpga: negative pool size %d", poolFPGAs)
	}
	for i, j := range jobs {
		if j.RequiredRate < 0 || j.InBoxRate < 0 {
			return nil, fmt.Errorf("fpga: job %d (%s) has negative rates", i, j.Name)
		}
	}
	out := make([]JobAllocation, len(jobs))
	var totalNeed float64
	needs := make([]float64, len(jobs))
	for i, j := range jobs {
		needs[i] = j.DeficitFPGAs()
		totalNeed += needs[i]
		out[i] = JobAllocation{Name: j.Name}
	}
	pool := float64(poolFPGAs)

	if totalNeed <= pool {
		// Everyone fully covered.
		for i, j := range jobs {
			out[i].GrantedFPGAs = needs[i]
			out[i].GrantedRate = j.Deficit()
			out[i].Satisfied = true
			if needs[i] > 0 {
				out[i].Fraction = 1
			}
		}
		return out, nil
	}

	// Contention: equal-fraction water filling. With grants g_i = f·n_i
	// and Σ g_i = pool, every deficit job gets fraction f = pool/Σ n_i —
	// already max-min fair on fractions since all fractions are equal
	// and capped at 1 (no job can exceed its own need). Jobs with zero
	// need stay at zero. (With per-job caps at 1 the classic round-based
	// filling is needed; kept for generality.)
	type idxNeed struct {
		idx  int
		need float64
	}
	order := make([]idxNeed, 0, len(jobs))
	for i, n := range needs {
		if n > 0 {
			order = append(order, idxNeed{i, n})
		}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].need < order[b].need })
	remaining := pool
	remainingNeed := totalNeed
	for _, in := range order {
		// Candidate uniform fraction for all still-unfrozen jobs.
		f := remaining / remainingNeed
		if f >= 1 {
			f = 1
		}
		grant := f * in.need
		out[in.idx].GrantedFPGAs = grant
		remaining -= grant
		remainingNeed -= in.need
	}
	for i, j := range jobs {
		out[i].GrantedRate = units.SamplesPerSec(out[i].GrantedFPGAs * float64(PrepRate(j.Type)))
		if needs[i] > 0 {
			out[i].Fraction = out[i].GrantedFPGAs / needs[i]
		}
		out[i].Satisfied = float64(j.InBoxRate)+float64(out[i].GrantedRate) >=
			float64(j.RequiredRate)*(1-1e-9)
	}
	return out, nil
}
