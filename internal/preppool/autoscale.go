package preppool

import (
	"fmt"

	"trainbox/internal/metrics"
	"trainbox/internal/units"
)

// AutoscaleConfig parameterizes a per-job required-rate controller. The
// controller reads the job's live training telemetry — the
// train.driver.prep_step_overlap ratio (prepare-stage busy time over
// step-stage busy time, updated every epoch by the driver) — and the
// job's own achieved prep rate, and moves Job.SetRequiredRate inside
// [Min, Max]:
//
//   - overlap > HighOverlap: preparation is the bottleneck (the
//     accelerators starve), so demand grows multiplicatively by Grow —
//     the next rebalance migrates leases toward this job.
//   - overlap < LowOverlap: preparation is fully hidden behind
//     computation with room to spare, so demand shrinks by Shrink —
//     releasing devices back to the pool for starved jobs.
//   - in between: the hysteresis band, no change.
//
// CooldownEpochs boundaries must pass after an adjustment before the
// next one, so a grant needs time to take effect (a rebalance plus a
// settle) before the controller reacts to its consequences.
type AutoscaleConfig struct {
	// Overlap is the live overlap-ratio source, typically
	// OverlapSource(reg) over the registry the job's train.Config
	// shares. Required.
	Overlap func() float64
	// Min and Max bound the required rate (Min ≥ 0, Max > Min).
	Min, Max units.SamplesPerSec
	// Grow (> 1) and Shrink (in (0,1)) are the multiplicative factors.
	Grow, Shrink float64
	// LowOverlap < HighOverlap bound the hysteresis dead band.
	LowOverlap, HighOverlap float64
	// CooldownEpochs is how many epoch boundaries to hold after an
	// adjustment (≥ 0; 0 allows back-to-back moves).
	CooldownEpochs int
}

func (c AutoscaleConfig) validate() error {
	if c.Overlap == nil {
		return fmt.Errorf("preppool: autoscale needs an overlap source")
	}
	if c.Min < 0 || c.Max <= c.Min {
		return fmt.Errorf("preppool: autoscale bounds [%v, %v] invalid", c.Min, c.Max)
	}
	if c.Grow <= 1 {
		return fmt.Errorf("preppool: autoscale grow factor %v must be > 1", c.Grow)
	}
	if c.Shrink <= 0 || c.Shrink >= 1 {
		return fmt.Errorf("preppool: autoscale shrink factor %v outside (0,1)", c.Shrink)
	}
	if c.LowOverlap < 0 || c.HighOverlap <= c.LowOverlap {
		return fmt.Errorf("preppool: autoscale hysteresis band [%v, %v] invalid", c.LowOverlap, c.HighOverlap)
	}
	if c.CooldownEpochs < 0 {
		return fmt.Errorf("preppool: autoscale cooldown must be ≥ 0")
	}
	return nil
}

// OverlapSource returns a live reader of the train.driver overlap gauge
// in reg — the registry passed as the job's train.Config.Metrics.
func OverlapSource(reg *metrics.Registry) func() float64 {
	return reg.Gauge("train.driver.prep_step_overlap").Value
}

// autoscaler is the controller state hanging off a Job (pool.mu).
type autoscaler struct {
	cfg      AutoscaleConfig
	cooldown int

	mUps    *metrics.Counter // preppool.job.<name>.autoscale_ups
	mDowns  *metrics.Counter // preppool.job.<name>.autoscale_downs
	gSignal *metrics.Gauge   // preppool.job.<name>.autoscale_overlap
}

// EnableAutoscale attaches the controller; each subsequent PrepareEpoch
// boundary evaluates it. The first boundary is always skipped — the
// overlap gauge only carries a signal once at least one step-stage
// epoch has completed.
func (j *Job) EnableAutoscale(cfg AutoscaleConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	p := j.pool
	p.mu.Lock()
	defer p.mu.Unlock()
	if j.closed {
		return fmt.Errorf("preppool: job %q is closed", j.spec.Name)
	}
	prefix := "preppool.job." + j.spec.Name + "."
	j.scaler = &autoscaler{
		cfg:      cfg,
		cooldown: 1, // skip the first boundary: no overlap signal yet
		mUps:     p.reg.Counter(prefix + "autoscale_ups"),
		mDowns:   p.reg.Counter(prefix + "autoscale_downs"),
		gSignal:  p.reg.Gauge(prefix + "autoscale_overlap"),
	}
	return nil
}

// autoscaleLocked is the per-epoch controller tick (pool.mu held).
func (j *Job) autoscaleLocked() {
	a := j.scaler
	if a == nil {
		return
	}
	overlap := a.cfg.Overlap()
	a.gSignal.Set(overlap)
	if a.cooldown > 0 {
		a.cooldown--
		return
	}
	want := j.required
	switch {
	case overlap > a.cfg.HighOverlap:
		want = units.SamplesPerSec(float64(j.required) * a.cfg.Grow)
		if want <= j.required {
			// Growing from zero demand: seed from the live achieved
			// prep rate so the controller has a real operating point.
			want = units.SamplesPerSec(j.achieved)
		}
		if want > a.cfg.Max {
			want = a.cfg.Max
		}
		if want < a.cfg.Min {
			want = a.cfg.Min
		}
		if want > j.required {
			j.required = want
			j.gRequired.Set(float64(want))
			a.mUps.Inc()
			a.cooldown = a.cfg.CooldownEpochs
		}
	case overlap < a.cfg.LowOverlap:
		want = units.SamplesPerSec(float64(j.required) * a.cfg.Shrink)
		if want < a.cfg.Min {
			want = a.cfg.Min
		}
		if want < j.required {
			j.required = want
			j.gRequired.Set(float64(want))
			a.mDowns.Inc()
			a.cooldown = a.cfg.CooldownEpochs
		}
	}
}
