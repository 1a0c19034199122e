// Command benchmark is the repository's benchmark: five workloads, the
// end-to-end metrics a user of the system sees, and a traced run that
// attributes them to layers. It measures every layer from outside — by
// timing calls into public functions, wrapping the seams train already
// exposes, and reading public counters. See README.md.
//
//	go run -C benchmark . -seed 1 -trace 1 -out out/results.json   # every workload, one child process each
//	go run -C benchmark . -workload image_host -seed 1 -seconds 12 -trace 0
//	go run -C benchmark . -compare out/set1.json out/set2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// options are the inputs of one workload run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	quick   bool // test-sized: tiny corpora, two repetitions
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// report is one workload run: its metrics, the checks the command
// enforces (any failure → exit ≠ 0) and the workload-validity asserts
// (warn and record only).
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Metrics    map[string]summary `json:"metrics"`
	Checks     []check            `json:"checks"`
	Asserts    []check            `json:"asserts"`
	WeightsFNV string             `json:"weights_fnv,omitempty"`
	Sizes      map[string]int     `json:"sizes,omitempty"`
	// SelfMs is each layer's self time in the traced run and the replay:
	// its spans' durations minus what their child spans cover.
	SelfMs map[string]float64 `json:"self_time_ms,omitempty"`
	WallS  float64            `json:"wall_s"`

	spans []span
}

func newReport(workload string, opt options) *report {
	return &report{Workload: workload, Seed: opt.seed, Trace: opt.trace, Metrics: map[string]summary{}}
}

// zeroLayers presets every per-layer row to 0: a layer that is not on
// this workload's live path reports 0, on purpose.
func (r *report) zeroLayers() {
	for _, d := range perLayer {
		r.Metrics[d.Name] = single(0, d.Unit)
	}
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) assert(name string, ok bool, format string, args ...any) {
	r.Asserts = append(r.Asserts, check{name, ok, fmt.Sprintf(format, args...)})
}

func (r *report) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	for _, s := range r.Metrics {
		if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
			return false
		}
	}
	return r.Attempted >= 1
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, name string, opt options) (*report, error) {
	start := time.Now()
	var rep *report
	var err error
	if name == "serve_mixed" {
		if opt.trace {
			rep, err = runServeTraced(ctx, opt)
		} else {
			rep, err = runServeEndToEnd(opt)
		}
	} else {
		var spec *trainSpec
		for _, s := range trainSpecs(opt.quick) {
			if s.name == name {
				spec = &s
			}
		}
		if spec == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		if opt.trace {
			rep, err = runTrainTraced(ctx, *spec, opt)
		} else {
			rep, err = runTrainEndToEnd(ctx, *spec, opt)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep.WallS = time.Since(start).Seconds()
	if len(rep.spans) > 0 {
		rep.SelfMs = map[string]float64{}
		for layer, d := range selfTimeByLayer(rep.spans) {
			rep.SelfMs[layer] = float64(d) / float64(time.Millisecond)
		}
	}
	return rep, nil
}

// print writes every metric by name with its unit, then the checks.
func (r *report) print() {
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("== %s  seed %d  trace %v  wall %.1f s\n", r.Workload, r.Seed, r.Trace, r.WallS)
	for _, name := range names {
		s := r.Metrics[name]
		if s.N > 1 {
			fmt.Printf("  %-38s %14.6g %-9s q1 %.6g  q3 %.6g  n %d\n", name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		} else {
			fmt.Printf("  %-38s %14.6g %s\n", name, s.Value, s.Unit)
		}
	}
	layers := make([]string, 0, len(r.SelfMs))
	for layer := range r.SelfMs {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		fmt.Printf("  self time  %-27s %14.3f ms\n", layer, r.SelfMs[layer])
	}
	if r.WeightsFNV != "" {
		fmt.Printf("  weights fnv %s\n", r.WeightsFNV)
	}
	for _, c := range r.Checks {
		fmt.Printf("  check  %-4s %s: %s\n", verdictWord(c.OK, "ok", "FAIL"), c.Name, c.Detail)
	}
	for _, c := range r.Asserts {
		fmt.Printf("  assert %-4s %s: %s\n", verdictWord(c.OK, "ok", "WARN"), c.Name, c.Detail)
	}
}

func verdictWord(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// resultLine is the driver contract's last line of standard output.
func (r *report) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	decls := endToEnd
	if r.Trace {
		decls = perLayer
	}
	metrics := map[string]value{}
	for _, d := range decls {
		if s, ok := r.Metrics[d.Name]; ok {
			metrics[d.Name] = value{s.Value, s.Unit}
		}
	}
	b, _ := json.Marshal(map[string]any{ // cannot fail: finite floats, strings and ints only
		"correct": r.correct(), "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// environment is recorded in results.json so two sets can be told apart.
type environment struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitHead    string `json:"git_head"`
}

// results is the file the all-workloads command writes and -compare
// reads. Bounds travel with it so a comparison uses the bounds the
// numbers were measured under.
type results struct {
	Seed      int64              `json:"seed"`
	Env       environment        `json:"env"`
	Bounds    []metricDecl       `json:"end_to_end"`
	EndToEnd  map[string]*report `json:"workloads"`
	PerLayer  map[string]*report `json:"workloads_traced,omitempty"`
	WallS     float64            `json:"wall_s"`
	CrossRuns []check            `json:"cross_checks"`
	Walls     map[string]float64 `json:"workload_wall_s"`
}

// Run-time guard: one child must stay under workloadCapS, and the whole
// set under that times the number of children.
const workloadCapS = 30.0

// runAll runs every workload, one child process per (workload, trace
// mode) so heap and allocation numbers do not bleed between them.
func runAll(opt options, outPath string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	outDir := filepath.Dir(outPath)
	res := results{
		Seed: opt.seed, Bounds: endToEnd,
		Env:      environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitHead()},
		EndToEnd: map[string]*report{}, PerLayer: map[string]*report{},
		Walls: map[string]float64{},
	}
	modes := []bool{false}
	if opt.trace {
		modes = append(modes, true)
	}
	begin := time.Now()
	failed := false
	for _, w := range workloads {
		for _, trace := range modes {
			repPath := filepath.Join(outDir, fmt.Sprintf("report-%s-%d.json", w.Name, b2i(trace)))
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(opt.seed), "-seconds", fmt.Sprint(opt.seconds),
				"-trace", fmt.Sprint(b2i(trace)), "-report", repPath}
			if opt.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			start := time.Now()
			runErr := cmd.Run() // waits for the child to exit
			wall := time.Since(start).Seconds()
			res.Walls[fmt.Sprintf("%s/trace%d", w.Name, b2i(trace))] = wall
			if wall >= workloadCapS {
				fmt.Printf("FAIL %s (trace %v) took %.1f s, cap is %g s\n", w.Name, trace, wall, workloadCapS)
				failed = true
			}
			var rep report
			data, err := os.ReadFile(repPath)
			if err == nil {
				err = json.Unmarshal(data, &rep)
			}
			if err != nil {
				return fmt.Errorf("%s: child left no report (%v): %w", w.Name, runErr, err)
			}
			failed = failed || runErr != nil
			if trace {
				res.PerLayer[w.Name] = &rep
			} else {
				res.EndToEnd[w.Name] = &rep
			}
		}
	}
	res.WallS = time.Since(begin).Seconds()

	host, off := res.EndToEnd["image_host"], res.EndToEnd["image_offload"]
	same := host.WeightsFNV == off.WeightsFNV && host.WeightsFNV != ""
	res.CrossRuns = append(res.CrossRuns, check{"image_offload weights == image_host weights", same,
		fmt.Sprintf("host %s, offload %s", host.WeightsFNV, off.WeightsFNV)})
	failed = failed || !same
	cap := workloadCapS * float64(len(workloads)*len(modes))
	res.CrossRuns = append(res.CrossRuns, check{"whole set under cap", res.WallS < cap, fmt.Sprintf("%.1f s of %g s", res.WallS, cap)})
	failed = failed || res.WallS >= cap

	fmt.Printf("\n== wall time: total %.1f s (cap %g s)\n", res.WallS, cap)
	keys := make([]string, 0, len(res.Walls))
	for k := range res.Walls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %6.1f s\n", k, res.Walls[k])
	}
	for _, c := range res.CrossRuns {
		fmt.Printf("  check %-4s %s: %s\n", verdictWord(c.OK, "ok", "FAIL"), c.Name, c.Detail)
	}
	if err := writeJSON(outPath, res); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", outPath)
	if failed {
		return fmt.Errorf("one or more checks failed")
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gitHead is `git rev-parse HEAD`, or "unknown" outside a repository.
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process (the driver contract); empty runs all, one child process each")
		seed     = flag.Int64("seed", 1, "seeds corpus synthesis, the dataset/augmentation seed, the job mix and the arrival schedule")
		seconds  = flag.Float64("seconds", runSeconds, "timed part of one workload run")
		trace    = flag.Int("trace", 0, "1: the traced run and per-layer metrics; 0: end-to-end metrics, tracing off")
		out      = flag.String("out", "out/results.json", "all-workloads mode: results file (reports and traces go beside it)")
		repPath  = flag.String("report", "", "one-workload mode: also write the full report (quartiles, checks) here")
		quick    = flag.Bool("quick", false, "test-sized run: tiny corpora, two repetitions")
		compare  = flag.Bool("compare", false, "compare two results files: -compare A.json B.json")
	)
	flag.Parse()
	opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, quick: *quick}
	if opt.quick {
		opt.seconds = 0
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A.json B.json")
			os.Exit(2)
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "":
		if err := runAll(opt, *out); err != nil {
			fatal(1, err)
		}
	default:
		rep, err := runWorkload(context.Background(), *workload, opt)
		if err != nil {
			fatal(1, err)
		}
		rep.print()
		if opt.trace {
			path := filepath.Join(filepath.Dir(*out), "trace-"+rep.Workload+".json")
			if err := writeChromeTrace(path, rep.spans); err != nil {
				fatal(1, err)
			}
			fmt.Printf("  trace: %s (%d spans)\n", path, len(rep.spans))
		}
		if *repPath != "" {
			if err := writeJSON(*repPath, rep); err != nil {
				fatal(1, err)
			}
		}
		fmt.Println(rep.resultLine())
		if !rep.correct() {
			os.Exit(1)
		}
	}
}
