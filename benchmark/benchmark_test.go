package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricDecl `json:"end_to_end"`
	PerLayer   []metricDecl `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The program's own tables and BENCHMARK.json must declare the same
// workloads and metrics: the driver reads the file, the program emits
// from the tables.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program assumes %d", b.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program declares %v", names, want)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", b.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// A quick-sized pass of every workload, end to end and traced: the
// emitted names equal the declared ones, every value is finite, and
// every enforced check passes.
func TestQuickPassEmitsDeclaredMetrics(t *testing.T) {
	var hostWeights string
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), w.Name, options{seed: 3, trace: trace, quick: true})
			if err != nil {
				t.Fatal(err)
			}
			decls := endToEnd
			if trace {
				decls = perLayer
			}
			want := map[string]string{}
			for _, d := range decls {
				want[d.Name] = d.Unit
			}
			for name, s := range rep.Metrics {
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s trace=%v: emitted undeclared metric %q", w.Name, trace, name)
				}
				if unit != s.Unit {
					t.Errorf("%s trace=%v: %s has unit %q, declared %q", w.Name, trace, name, s.Unit, unit)
				}
				if math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v", w.Name, trace, name, s.Value)
				}
				if !trace && s.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("%s trace=%v: declared metric %q not emitted", w.Name, trace, name)
			}
			for _, c := range rep.Checks {
				if c.Name == "generator lag" {
					continue // a wall-clock limit: holds on an idle box, not under -race or a loaded CI runner
				}
				if !c.OK {
					t.Errorf("%s trace=%v: check %q failed: %s", w.Name, trace, c.Name, c.Detail)
				}
			}
			if rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: %d failed of %d attempted", w.Name, trace, rep.Failed, rep.Attempted)
			}
			var line struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil || len(line.Metrics) != len(decls) {
				t.Errorf("%s trace=%v: result line %q: %v", w.Name, trace, rep.resultLine(), err)
			}
			if trace && len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.Name)
			}
			if !trace && w.Name == "image_host" {
				hostWeights = rep.WeightsFNV
			}
			if !trace && w.Name == "image_offload" && rep.WeightsFNV != hostWeights {
				t.Errorf("image_offload weights %s != image_host weights %s", rep.WeightsFNV, hostWeights)
			}
		}
	}
}

func TestQuantiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	if got := median(v); got != 3 {
		t.Errorf("median = %v", got)
	}
	if q1, q3 := quantile(v, 0.25), quantile(v, 0.75); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if got := percentile(hundred, 0.95); got != 95 {
		t.Errorf("p95 of 1..100 = %v", got)
	}
	if got := percentile(hundred, 1); got != 100 {
		t.Errorf("p100 of 1..100 = %v", got)
	}
	s := summarize(v, "ms")
	if s.Value != 3 || s.Q1 != 2 || s.Q3 != 4 || s.N != 5 || s.Unit != "ms" {
		t.Errorf("summary = %+v", s)
	}
}

// The highest percentile a sample supports has at least ten samples
// beyond it.
func TestPercentileSupported(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 0.95, false}, {200, 0.95, true}, {420, 0.95, true},
		{99, 0.90, false}, {100, 0.90, true}, {420, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false},
	} {
		if got := percentileSupported(c.n, c.p); got != c.want {
			t.Errorf("percentileSupported(%d, %v) = %v", c.n, c.p, got)
		}
	}
}

func TestPoissonScheduleDeterministicPerSeed(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 20, 10*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 20, 10*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 20, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	if n := len(a); n < 150 || n > 250 {
		t.Errorf("rate 20 for 10 s gave %d arrivals", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	if a[len(a)-1] >= 10*time.Second {
		t.Errorf("arrival %v past the phase end", a[len(a)-1])
	}
}

func TestJobMixProportions(t *testing.T) {
	jobs := jobMix(rand.New(rand.NewSource(1)), 200)
	count := map[int]int{}
	tenants := map[string]bool{}
	for _, j := range jobs {
		count[j.kind]++
		tenants[j.spec.Tenant] = true
		if want := j.spec.Items / j.spec.Replicas * j.spec.Replicas * j.spec.Epochs; j.wantSamples != want {
			t.Errorf("wantSamples %d, spec implies %d", j.wantSamples, want)
		}
		if (j.kind == kindPooled) != (j.spec.RequiredRate > 0) {
			t.Errorf("kind %d with required rate %v", j.kind, j.spec.RequiredRate)
		}
	}
	if count[kindHost] != 140 || count[kindPooled] != 40 || count[kindSweep] != 20 {
		t.Errorf("mix of 200 = %v, want 140/40/20", count)
	}
	if len(tenants) != serveTenants {
		t.Errorf("%d tenants, want %d", len(tenants), serveTenants)
	}
	if !reflect.DeepEqual(jobs, jobMix(rand.New(rand.NewSource(1)), 200)) {
		t.Error("same seed gave a different mix")
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDecl{Name: "samples_per_s", Better: "higher", Bound: 0.10}
	lower := metricDecl{Name: "latency", Better: "lower", Bound: 0.10}
	tight := func(v float64) summary { return summarize([]float64{v * 0.99, v, v * 1.01}, "x") }
	wide := func(v float64) summary { return summarize([]float64{v * 0.8, v, v * 1.2}, "x") }
	for _, c := range []struct {
		name string
		a, b summary
		d    metricDecl
		want string
	}{
		{"equal", tight(100), tight(100), higher, verdictSame},
		{"within bound", tight(100), tight(95), higher, verdictSame},
		{"throughput fell", tight(100), tight(85), higher, verdictWorse},
		{"throughput rose", tight(100), tight(115), higher, verdictBetter},
		{"latency rose", tight(100), tight(115), lower, verdictWorse},
		{"latency fell", tight(100), tight(85), lower, verdictBetter},
		{"wide and interleaved", wide(100), wide(85), higher, verdictUnresolved},
		{"wide but every run apart", wide(100), wide(50), higher, verdictWorse},
		{"single values", single(100, "x"), single(120, "x"), lower, verdictWorse},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	mk := func(rate float64, failed int) results {
		r := results{Bounds: endToEnd, EndToEnd: map[string]*report{}}
		for _, w := range workloads {
			rep := &report{Workload: w.Name, Attempted: 100, Failed: failed, Metrics: map[string]summary{}}
			for _, d := range endToEnd {
				rep.Metrics[d.Name] = single(10, d.Unit)
			}
			rep.Metrics["samples_per_s"] = single(rate, "samples/s")
			r.EndToEnd[w.Name] = rep
		}
		return r
	}
	var out strings.Builder
	if !compareResults(&out, mk(100, 0), mk(101, 0)) {
		t.Errorf("equal sets rejected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "of 100") {
		t.Errorf("ratio is not printed with its base:\n%s", out.String())
	}
	if compareResults(&out, mk(100, 0), mk(50, 0)) {
		t.Error("halved throughput accepted")
	}
	if compareResults(&out, mk(100, 0), mk(100, 1)) {
		t.Error("an increase in failed share accepted")
	}
}

func TestSelfTimeAndLanes(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.origin.Add(time.Duration(ms) * time.Millisecond) }
	parent := tr.add("parent", "a", "j", 0, -1, 0, at(0), at(10))
	tr.add("child", "b", "j", 0, parent, 0, at(2), at(6))
	other := tr.add("parent", "a", "k", 0, -1, 0, at(5), at(12))
	spans := tr.snapshot()
	self := selfTimeByLayer(spans)
	if self["a"] != 13*time.Millisecond || self["b"] != 4*time.Millisecond {
		t.Errorf("self times = %v", self)
	}
	if got := childCoverage(spans, parent); got != 0.4 {
		t.Errorf("coverage = %v", got)
	}
	packLanes(spans, 100, func(s span) bool { return s.Name == "parent" })
	if spans[parent].Lane == spans[other].Lane {
		t.Error("overlapping spans share a lane")
	}
	if spans[1].Lane != spans[parent].Lane {
		t.Error("child left its parent's lane")
	}
}
