// Package loadtest drives synthetic multi-tenant load against a serve
// front-end and checks the fairness and shedding invariants the server
// promises. It speaks either to an in-process *serve.Server or to a
// remote one over its HTTP API, so the same harness backs unit tests,
// the trainbox-loadgen CLI, and the CI serving gate.
package loadtest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"trainbox/internal/serve"
)

// Client is the slice of the serving API the generator needs; an
// in-process *serve.Server implements it directly.
type Client interface {
	Submit(spec serve.JobSpec) (serve.Info, error)
	Status(id string) (serve.Info, error)
	Cancel(id string) error
	Suspend(id string) error
	Resume(id string) error
}

// HTTP speaks to a remote front-end at BaseURL (e.g.
// "http://127.0.0.1:8080"). Shed responses (429) are converted back
// into *serve.ShedError so the generator counts them uniformly.
type HTTP struct {
	BaseURL string
	Client  *http.Client
}

func (h HTTP) client() *http.Client {
	if h.Client != nil {
		return h.Client
	}
	return http.DefaultClient
}

func (h HTTP) do(method, path string, body, out any) (*http.Response, error) {
	var rd *strings.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = strings.NewReader(string(b))
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, h.BaseURL+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := h.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode == http.StatusTooManyRequests {
			retry := time.Second
			if secs := resp.Header.Get("Retry-After"); secs != "" {
				var n int
				if _, err := fmt.Sscan(secs, &n); err == nil && n > 0 {
					retry = time.Duration(n) * time.Second
				} else {
					return resp, fmt.Errorf("loadtest: 429 with malformed Retry-After %q", secs)
				}
			} else {
				return resp, errors.New("loadtest: 429 without Retry-After header")
			}
			return resp, &serve.ShedError{Reason: strings.TrimPrefix(e.Error, "serve: "), RetryAfter: retry}
		}
		err := fmt.Errorf("loadtest: %s %s → %d: %s", method, path, resp.StatusCode, e.Error)
		if resp.StatusCode == http.StatusConflict {
			// Map 409 bodies back onto the in-process sentinels so the
			// generator classifies races (cancel/suspend/resume of a job
			// that just moved on) uniformly across both clients.
			switch {
			case strings.Contains(e.Error, "already suspended"):
				err = fmt.Errorf("%w: %s", serve.ErrAlreadySuspended, e.Error)
			case strings.Contains(e.Error, "is not suspended"):
				err = fmt.Errorf("%w: %s", serve.ErrNotSuspended, e.Error)
			default:
				err = fmt.Errorf("%w: %s", serve.ErrAlreadyFinished, e.Error)
			}
		}
		return resp, err
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp, err
		}
	}
	return resp, nil
}

func (h HTTP) Submit(spec serve.JobSpec) (serve.Info, error) {
	var inf serve.Info
	_, err := h.do("POST", "/v1/jobs", spec, &inf)
	return inf, err
}

func (h HTTP) Status(id string) (serve.Info, error) {
	var inf serve.Info
	_, err := h.do("GET", "/v1/jobs/"+id, nil, &inf)
	return inf, err
}

func (h HTTP) Cancel(id string) error {
	_, err := h.do("DELETE", "/v1/jobs/"+id, nil, nil)
	return err
}

func (h HTTP) Suspend(id string) error {
	_, err := h.do("POST", "/v1/jobs/"+id+"/suspend", nil, nil)
	return err
}

func (h HTTP) Resume(id string) error {
	_, err := h.do("POST", "/v1/jobs/"+id+"/resume", nil, nil)
	return err
}

// Config shapes one load run.
type Config struct {
	// Tenants is the number of concurrent tenants (each its own
	// goroutine, named t000…).
	Tenants int
	// JobsPerTenant is how many submissions each tenant attempts.
	JobsPerTenant int
	// Spec templates every submission; Tenant and Seed are overwritten
	// per submission.
	Spec serve.JobSpec
	// CancelEvery cancels each tenant's n-th admitted job instead of
	// waiting for it (0 = never cancel).
	CancelEvery int
	// ChurnFraction puts the first ⌈fraction·Tenants⌉ tenants in churn
	// mode: every job they admit (and don't cancel) is suspended
	// mid-burst, awaited into the suspended state, and resumed — the
	// elastic-lifecycle stressor. 0 disables churn; values are clamped
	// to [0, 1].
	ChurnFraction float64
	// Retries caps extra submission attempts after a shed: 0 gives up
	// immediately, n retries at most n times, -1 retries until admitted
	// or the run deadline. Every shed attempt still counts in the
	// report.
	Retries int
	// Backoff is how long a tenant waits after a shed before retrying
	// (default 1ms when retries are enabled).
	Backoff time.Duration
	// PollInterval is the status-poll period while waiting for admitted
	// jobs to finish (default 5ms).
	PollInterval time.Duration
	// Timeout bounds the whole run (default 2 minutes).
	Timeout time.Duration
}

func (c *Config) fill() {
	if c.Tenants < 1 {
		c.Tenants = 1
	}
	if c.JobsPerTenant < 1 {
		c.JobsPerTenant = 1
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 5 * time.Millisecond
	}
	if c.Backoff <= 0 && c.Retries != 0 {
		c.Backoff = time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.ChurnFraction < 0 {
		c.ChurnFraction = 0
	}
	if c.ChurnFraction > 1 {
		c.ChurnFraction = 1
	}
}

// TenantReport is one tenant's tally. Suspends/Resumes count accepted
// churn requests; Suspended/Running/Queued count jobs still live in
// those states when the run gave up waiting (0 on a clean drain).
type TenantReport struct {
	Tenant    string `json:"tenant"`
	Submitted int    `json:"submitted"`
	Admitted  int    `json:"admitted"`
	Shed      int    `json:"shed"`
	Done      int    `json:"done"`
	Failed    int    `json:"failed"`
	Cancelled int    `json:"cancelled"`
	Suspends  int    `json:"suspends,omitempty"`
	Resumes   int    `json:"resumes,omitempty"`
	Suspended int    `json:"suspended,omitempty"`
	Running   int    `json:"running,omitempty"`
	Queued    int    `json:"queued,omitempty"`
}

// Report is the aggregated outcome of a run.
type Report struct {
	Tenants   []TenantReport `json:"tenants"`
	Submitted int            `json:"submitted"`
	Admitted  int            `json:"admitted"`
	Shed      int            `json:"shed"`
	Done      int            `json:"done"`
	Failed    int            `json:"failed"`
	Cancelled int            `json:"cancelled"`
	Suspends  int            `json:"suspends,omitempty"`
	Resumes   int            `json:"resumes,omitempty"`
	Suspended int            `json:"suspended,omitempty"`
	Running   int            `json:"running,omitempty"`
	Queued    int            `json:"queued,omitempty"`
	Elapsed   time.Duration  `json:"elapsed"`
	// Errors are hard protocol failures (non-shed submit errors, poll
	// errors, malformed 429s) — any entry fails Verify.
	Errors []string `json:"errors,omitempty"`
}

// Run fires Config.Tenants concurrent tenants at the client and waits
// for every admitted job to reach a terminal state.
func Run(ctx context.Context, c Client, cfg Config) Report {
	cfg.fill()
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	start := time.Now()

	reports := make([]TenantReport, cfg.Tenants)
	errs := make([][]string, cfg.Tenants)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Tenants; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			reports[idx], errs[idx] = runTenant(ctx, c, cfg, idx)
		}(i)
	}
	wg.Wait()

	rep := Report{Tenants: reports, Elapsed: time.Since(start)}
	for i := range reports {
		rep.Submitted += reports[i].Submitted
		rep.Admitted += reports[i].Admitted
		rep.Shed += reports[i].Shed
		rep.Done += reports[i].Done
		rep.Failed += reports[i].Failed
		rep.Cancelled += reports[i].Cancelled
		rep.Suspends += reports[i].Suspends
		rep.Resumes += reports[i].Resumes
		rep.Suspended += reports[i].Suspended
		rep.Running += reports[i].Running
		rep.Queued += reports[i].Queued
		rep.Errors = append(rep.Errors, errs[i]...)
	}
	if err := ctx.Err(); err != nil && errors.Is(err, context.DeadlineExceeded) {
		rep.Errors = append(rep.Errors, fmt.Sprintf("run timed out after %v", cfg.Timeout))
	}
	return rep
}

func runTenant(ctx context.Context, c Client, cfg Config, idx int) (TenantReport, []string) {
	tr := TenantReport{Tenant: fmt.Sprintf("t%03d", idx)}
	churner := float64(idx+1) <= cfg.ChurnFraction*float64(cfg.Tenants)
	var errs []string
	var admitted []serve.Info
	for n := 0; n < cfg.JobsPerTenant && ctx.Err() == nil; n++ {
		spec := cfg.Spec
		spec.Tenant = tr.Tenant
		spec.Seed = int64(idx*cfg.JobsPerTenant + n + 1)
		inf, err := submitOnce(ctx, c, spec, cfg, &tr)
		if err != nil {
			var shed *serve.ShedError
			if errors.As(err, &shed) {
				continue // counted inside submitOnce
			}
			errs = append(errs, fmt.Sprintf("%s submit: %v", tr.Tenant, err))
			continue
		}
		tr.Admitted++
		cancelled := false
		if cfg.CancelEvery > 0 && (n+1)%cfg.CancelEvery == 0 {
			cancelled = true
			// Cancellation of an already-terminal job is a benign race.
			if err := c.Cancel(inf.ID); err != nil && !errors.Is(err, serve.ErrAlreadyFinished) {
				errs = append(errs, fmt.Sprintf("%s cancel %s: %v", tr.Tenant, inf.ID, err))
			}
		}
		if churner && !cancelled {
			if err := churn(ctx, c, cfg, &tr, inf.ID); err != nil {
				errs = append(errs, fmt.Sprintf("%s churn %s: %v", tr.Tenant, inf.ID, err))
			}
		}
		admitted = append(admitted, inf)
	}
	for _, inf := range admitted {
		st, err := awaitTerminal(ctx, c, inf.ID, cfg.PollInterval)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s await %s: %v", tr.Tenant, inf.ID, err))
		}
		// Terminal states tally normally; a job the run gave up on still
		// lands in exactly one live-state bucket, so Verify's
		// no-lost-jobs equation accounts for every admitted job.
		switch st {
		case serve.StateDone:
			tr.Done++
		case serve.StateFailed:
			tr.Failed++
		case serve.StateCancelled:
			tr.Cancelled++
		case serve.StateSuspended:
			tr.Suspended++
		case serve.StateRunning:
			tr.Running++
		case serve.StateQueued:
			tr.Queued++
		}
	}
	return tr, errs
}

// churn drives one suspend→park→resume cycle: ask the job to suspend,
// wait for it to actually park (running jobs park asynchronously at
// their next epoch boundary), then resume it. Races with the job's own
// completion are benign and counted as neither a suspend nor a resume.
func churn(ctx context.Context, c Client, cfg Config, tr *TenantReport, id string) error {
	if err := c.Suspend(id); err != nil {
		if errors.Is(err, serve.ErrAlreadyFinished) || errors.Is(err, serve.ErrAlreadySuspended) {
			return nil
		}
		return err
	}
	tr.Suspends++
	tick := time.NewTicker(cfg.PollInterval)
	defer tick.Stop()
	for {
		inf, err := c.Status(id)
		if err != nil {
			return err
		}
		if inf.State == serve.StateSuspended {
			break
		}
		if inf.State.Terminal() {
			return nil // the run finished before its park boundary
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return fmt.Errorf("job %s never parked (still %s): %w", id, inf.State, ctx.Err())
		}
	}
	if err := c.Resume(id); err != nil {
		if errors.Is(err, serve.ErrAlreadyFinished) || errors.Is(err, serve.ErrNotSuspended) {
			return nil
		}
		return err
	}
	tr.Resumes++
	return nil
}

// submitOnce submits one job, retrying after sheds per cfg.Retries.
// Every attempt (including shed ones) is tallied into tr.
func submitOnce(ctx context.Context, c Client, spec serve.JobSpec, cfg Config, tr *TenantReport) (serve.Info, error) {
	for attempt := 0; ; attempt++ {
		tr.Submitted++
		inf, err := c.Submit(spec)
		var shed *serve.ShedError
		if err == nil || !errors.As(err, &shed) {
			return inf, err
		}
		tr.Shed++
		if cfg.Retries >= 0 && attempt >= cfg.Retries {
			return serve.Info{}, err
		}
		select {
		case <-time.After(cfg.Backoff):
		case <-ctx.Done():
			return serve.Info{}, err
		}
	}
}

// awaitTerminal polls until the job reaches a terminal state. On
// timeout it returns the last observed live state alongside the error,
// so the caller can still account for the job.
func awaitTerminal(ctx context.Context, c Client, id string, poll time.Duration) (serve.State, error) {
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		inf, err := c.Status(id)
		if err != nil {
			return "", err
		}
		if inf.State.Terminal() {
			return inf.State, nil
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return inf.State, fmt.Errorf("job %s still %s: %w", id, inf.State, ctx.Err())
		}
	}
}

// Invariants tunes Verify.
type Invariants struct {
	// WantShed requires at least one shed (an overload run that never
	// shed means admission control was not exercised).
	WantShed bool
	// MinFairness is the floor on min/max admitted-per-tenant (0 skips
	// the check; 1 demands exact equality).
	MinFairness float64
	// AllowFailed permits failed jobs (default: any failure is a
	// violation).
	AllowFailed bool
}

// Verify checks the run against the server's promised invariants and
// returns every violation (empty slice = clean run).
func (r Report) Verify(inv Invariants) []string {
	var v []string
	if len(r.Errors) > 0 {
		v = append(v, fmt.Sprintf("%d protocol errors (first: %s)", len(r.Errors), r.Errors[0]))
	}
	if r.Submitted != r.Admitted+r.Shed {
		v = append(v, fmt.Sprintf("conservation broken: submitted %d != admitted %d + shed %d", r.Submitted, r.Admitted, r.Shed))
	}
	// No-lost-jobs: every admitted job is in exactly one bucket —
	// terminal (done/failed/cancelled) or still live (suspended/
	// running/queued) when the run gave up waiting. A clean drain has
	// all three live buckets at zero.
	if got := r.Done + r.Failed + r.Cancelled + r.Suspended + r.Running + r.Queued; got != r.Admitted {
		v = append(v, fmt.Sprintf("no-lost-jobs broken: %d admitted but %d accounted (done %d + failed %d + cancelled %d + suspended %d + running %d + queued %d)",
			r.Admitted, got, r.Done, r.Failed, r.Cancelled, r.Suspended, r.Running, r.Queued))
	}
	if got := r.Suspended + r.Running + r.Queued; got > 0 {
		v = append(v, fmt.Sprintf("%d admitted jobs never reached a terminal state (suspended %d, running %d, queued %d)", got, r.Suspended, r.Running, r.Queued))
	}
	if !inv.AllowFailed && r.Failed > 0 {
		v = append(v, fmt.Sprintf("%d jobs failed", r.Failed))
	}
	if inv.WantShed && r.Shed == 0 {
		v = append(v, "overload run shed nothing: admission control never engaged")
	}
	if inv.MinFairness > 0 {
		if f, minT, maxT := r.Fairness(); f < inv.MinFairness {
			v = append(v, fmt.Sprintf("fairness %.2f below %.2f (min tenant %s, max tenant %s)", f, inv.MinFairness, minT, maxT))
		}
		for i := range r.Tenants {
			if r.Tenants[i].Admitted == 0 {
				v = append(v, fmt.Sprintf("tenant %s was never admitted", r.Tenants[i].Tenant))
				break
			}
		}
	}
	return v
}

// Fairness returns min/max admitted-per-tenant plus the extreme
// tenants; 1.0 with no tenants or all-equal admission.
func (r Report) Fairness() (ratio float64, minTenant, maxTenant string) {
	if len(r.Tenants) == 0 {
		return 1, "", ""
	}
	minA, maxA := math.MaxInt, 0
	for i := range r.Tenants {
		a := r.Tenants[i].Admitted
		if a < minA {
			minA, minTenant = a, r.Tenants[i].Tenant
		}
		if a > maxA {
			maxA, maxTenant = a, r.Tenants[i].Tenant
		}
	}
	if maxA == 0 {
		return 1, minTenant, maxTenant
	}
	return float64(minA) / float64(maxA), minTenant, maxTenant
}

// String renders the report for humans (CLI and CI logs).
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loadtest: %d tenants, %d submitted in %v\n", len(r.Tenants), r.Submitted, r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "  admitted %d, shed %d, done %d, failed %d, cancelled %d\n", r.Admitted, r.Shed, r.Done, r.Failed, r.Cancelled)
	if r.Suspends > 0 || r.Resumes > 0 {
		fmt.Fprintf(&b, "  churn: %d suspends, %d resumes\n", r.Suspends, r.Resumes)
	}
	if live := r.Suspended + r.Running + r.Queued; live > 0 {
		fmt.Fprintf(&b, "  stuck live: %d suspended, %d running, %d queued\n", r.Suspended, r.Running, r.Queued)
	}
	f, minT, maxT := r.Fairness()
	fmt.Fprintf(&b, "  fairness %.2f (min %s, max %s)\n", f, minT, maxT)
	if len(r.Errors) > 0 {
		sorted := append([]string(nil), r.Errors...)
		sort.Strings(sorted)
		fmt.Fprintf(&b, "  %d errors, first: %s\n", len(sorted), sorted[0])
	}
	return b.String()
}
