// Repo-wide guards. The metric naming test drives every metered
// subsystem — storage with faults and retries, the host executor,
// pooled FPGA devices, the prep-pool runtime, and the training driver —
// into ONE shared registry, then asserts that every name in the final
// snapshot follows subsystem.object.metric (metrics.ValidName). The
// single-path test walks the non-test sources and fails when a
// superseded API generation starts growing back or a package is left
// with no command that reaches it.
package trainbox_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"trainbox/internal/dataprep"
	"trainbox/internal/faults"
	"trainbox/internal/fpga"
	"trainbox/internal/metrics"
	"trainbox/internal/nvme"
	"trainbox/internal/preppool"
	"trainbox/internal/storage"
	"trainbox/internal/train"
)

func poolFeature(p dataprep.Prepared) ([]float64, int, error) {
	ten := p.Image
	const block = 4
	side := ten.W / block
	feat := make([]float64, side*side)
	for by := 0; by < side; by++ {
		for bx := 0; bx < side; bx++ {
			var sum float64
			for y := by * block; y < (by+1)*block; y++ {
				for x := bx * block; x < (bx+1)*block; x++ {
					sum += float64(ten.At(0, y, x))
				}
			}
			feat[by*side+bx] = sum / (block * block)
		}
	}
	return feat, p.Label, nil
}

func TestAllExportedMetricNamesFollowScheme(t *testing.T) {
	const seed = 5
	reg := metrics.NewRegistry()

	store := storage.NewStore(storage.DefaultSSDSpec())
	if err := dataprep.BuildImageDataset(store, 8, 4, seed); err != nil {
		t.Fatal(err)
	}
	store.WithMetrics(reg).WithFaults(faults.Metered(faults.NewErrorRate(7, 0.1, nil), reg)).
		WithRetry(faults.RetryPolicy{MaxAttempts: 4, Seed: 8})

	imgCfg := dataprep.DefaultImageConfig()
	imgCfg.CropW, imgCfg.CropH = 32, 32
	exec := dataprep.NewExecutor(dataprep.ImagePreparer{Config: imgCfg}, 2, seed).WithMetrics(reg)

	// Pooled devices, the prep-pool runtime, and the training driver.
	ns, err := nvme.LoadStore(store)
	if err != nil {
		t.Fatal(err)
	}
	handlers := make([]*fpga.P2PHandler, 2)
	for i := range handlers {
		h, err := fpga.NewP2PHandler(ns, fpga.NewImageEmulator(imgCfg), 8, fpga.WithMetrics(reg))
		if err != nil {
			t.Fatal(err)
		}
		handlers[i] = h
	}
	pool, err := preppool.NewPool(handlers, preppool.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	job, err := pool.Register(preppool.JobSpec{
		Name: "naming", Type: 0, RequiredRate: 16000,
		Exec:        exec,
		Store:       store,
		DatasetSeed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := train.Run(context.Background(), train.Config{
		Replicas: 2, Widths: []int{64, 16, 4}, Epochs: 2,
		LearningRate: 0.05, PrefetchDepth: 1, Seed: 9, Metrics: reg,
	},
		train.WithPreparer(job.Preparer(store.Keys()), store.Len()),
		train.WithFeature(poolFeature)); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	names := snap.Names()
	if len(names) < 19 {
		t.Fatalf("only %d metric names exported — the fixture is not exercising the stack", len(names))
	}
	for _, name := range names {
		if !metrics.ValidName(name) {
			t.Errorf("metric %q does not follow subsystem.object.metric", name)
		}
	}
}

// TestOnePathPerJob keeps the deleted API generation deleted: no
// non-test source outside benchmark/ may carry a deprecation doc marker
// (a shim kept beside its replacement), internal/dataprep may declare
// only one interface with a prepare method — dataprep.Preparer — and
// every internal/ package with non-test sources must be reachable by
// imports from a main under cmd/ or examples/ or from benchmark/, so
// deleting a command cannot strand a package unnoticed.
func TestOnePathPerJob(t *testing.T) {
	// Packages only _test files import, with the reason they exist.
	testOnly := map[string]string{
		"internal/invariant": "resource-balance checks shared by the tests",
	}
	marker := "Deprecated" + ":"
	var prepareIfaces []string
	imports := map[string][]string{} // package dir → module-relative dirs it imports
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		deps := imports[dir]
		for _, imp := range f.Imports {
			if dep, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), "trainbox/"); ok {
				deps = append(deps, dep)
			}
		}
		imports[dir] = deps // recorded even when empty: the key set is the package list
		if dir == "benchmark" {
			return nil // walked for its imports only
		}
		for _, cg := range f.Comments {
			if strings.Contains(cg.Text(), marker) {
				t.Errorf("%s: %q marker — delete the shim instead of keeping it beside its replacement",
					fset.Position(cg.Pos()), marker)
			}
		}
		if dir != "internal/dataprep" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			iface, ok := ts.Type.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range iface.Methods.List {
				for _, name := range m.Names {
					if strings.HasPrefix(name.Name, "Prepare") {
						prepareIfaces = append(prepareIfaces, ts.Name.Name)
						return true
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(prepareIfaces) != 1 || prepareIfaces[0] != "Preparer" {
		t.Errorf("internal/dataprep interfaces with a prepare method = %v, want exactly [Preparer]", prepareIfaces)
	}

	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		for _, dep := range imports[dir] {
			if !reached[dep] {
				reached[dep] = true
				visit(dep)
			}
		}
	}
	for dir := range imports {
		if !strings.HasPrefix(dir, "internal/") {
			visit(dir)
		}
	}
	for dir := range imports {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		if reason, exempt := testOnly[dir]; exempt == reached[dir] {
			if exempt {
				t.Errorf("%s is listed as test-only (%s) but a command imports it — drop the exemption", dir, reason)
			} else {
				t.Errorf("%s is imported by no command, example or benchmark — delete it, or name it in testOnly with the reason", dir)
			}
		}
	}
}
