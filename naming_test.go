// Repo-wide guards. The metric naming test drives every metered
// subsystem — storage with faults and retries, the host executor,
// pooled FPGA devices, the prep-pool runtime, and the training driver —
// into ONE shared registry, then asserts that every name in the final
// snapshot follows subsystem.object.metric (metrics.ValidName). The
// single-path test walks the non-test sources and fails when a
// superseded API generation starts growing back, or when a package or a
// function is left with no binary that reaches it: it builds every main
// with inlining off and reads their symbol tables (go tool nm), so code
// only tests call must be deleted or named, with its reason, in the one
// exemption table notLinked.
package trainbox_test

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
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
		train.WithFeature(train.BlockFeature)); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Gauges {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	if len(names) < 19 {
		t.Fatalf("only %d metric names exported — the fixture is not exercising the stack", len(names))
	}
	for _, name := range names {
		if !metrics.ValidName(name) {
			t.Errorf("metric %q does not follow subsystem.object.metric", name)
		}
	}
}

// Why a notLinked entry stays although no binary links it.
const (
	oracle  = "reference oracle the tests compare against"
	seam    = "fault or fake seam the tests inject through"
	harness = "test harness"
	probe   = "test probe"
)

// notLinked is the one exemption table of TestOnePathPerJob: a function
// ("internal/pkg.Func", "internal/pkg.Type.Method") or a whole package
// ("internal/pkg") that no binary links, with the reason it stays. A
// whole package may be named only as a seam or a harness, so no other
// package is exempted wholesale. A package entry still covers every
// function in that package, including one that no test calls either:
// the check does not see dead code inside a seam or harness package.
var notLinked = map[string]string{
	"internal/dsp.FFT":                     oracle,
	"internal/dsp.IFFT":                    oracle,
	"internal/dsp.FFTReal":                 oracle,
	"internal/dsp.NaiveDFT":                oracle,
	"internal/dsp.FFTPlan.Transform":       oracle,
	"internal/dsp.FFTPlan.Inverse":         oracle,
	"internal/dsp.LogMelSpectrogram":       oracle,
	"internal/dsp.LogCompress":             oracle,
	"internal/dsp.MelFilterbank.Apply":     oracle,
	"internal/dsp.MelFilterbank.ApplyInto": oracle,
	"internal/collective.CentralAllReduce": oracle,

	"internal/faults":                   seam,
	"internal/storage.Store.WithFaults": seam,
	"internal/storage.Store.WithRetry":  seam,
	"internal/fpga.WithFaults":          seam,

	"internal/invariant": harness,

	"internal/fpga.P2PHandler.OutputStats":    probe,
	"internal/pipeline.Pool.Stats":            probe,
	"internal/metrics.ValidName":              probe,
	"internal/arch.System.BoxOf":              probe,
	"internal/arch.PrepDevice.String":         probe,
	"internal/workload.PrepOp.String":         probe,
	"internal/workload.PrepOps":               probe,
	"internal/pcie.Topology.LinkOf":           probe,
	"internal/pcie.Topology.RouteCrossesRoot": probe,
	"internal/pcie.LinkLoad.Load":             probe,
	"internal/pcie.Direction.String":          probe,
	"internal/pcie.Segment.String":            probe,
}

// TestOnePathPerJob keeps the deleted API generation deleted: no
// non-test source outside benchmark/ may carry a deprecation doc marker
// (a shim kept beside its replacement), internal/dataprep may declare
// only one interface with a prepare method — dataprep.Preparer — every
// internal/ package must be reachable by imports from a main under cmd/
// or examples/ or from benchmark/, and every function declared in a
// non-test internal/ file must be linked into one of those binaries.
// Whatever fails the last two is deleted or named in notLinked; an
// entry that no longer exempts anything fails too, and so does a
// package-level entry whose reason is not seam or harness.
func TestOnePathPerJob(t *testing.T) {
	marker := "Deprecated" + ":"
	var prepareIfaces []string
	imports := map[string][]string{} // package dir → module-relative dirs it imports
	declared := map[string]string{}  // "internal/pkg.[Type.]Func" → position
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
		if strings.HasPrefix(dir, "internal/") {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name != "init" {
					declared[dir+"."+funcName(fd)] = fset.Position(fd.Pos()).String()
				}
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

	used := map[string]bool{}
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
		if !strings.HasPrefix(dir, "internal/") || reached[dir] {
			continue
		}
		if _, ok := notLinked[dir]; ok {
			used[dir] = true
		} else {
			t.Errorf("%s is imported by no command, example or benchmark — delete it, or name it in notLinked with the reason", dir)
		}
	}

	linked := linkedFuncs(t)
	var stranded []string
	for fn, pos := range declared {
		if linked[fn] {
			continue
		}
		pkg := fn[:strings.Index(fn, ".")]
		switch _, byName := notLinked[fn]; {
		case byName:
			used[fn] = true
		case notLinked[pkg] != "":
			used[pkg] = true
		default:
			stranded = append(stranded, fn+" ("+pos+")")
		}
	}
	sort.Strings(stranded)
	for _, fn := range stranded {
		t.Errorf("%s is linked into no binary — delete it, or name it in notLinked with the reason", fn)
	}
	for entry, reason := range notLinked {
		if !used[entry] {
			t.Errorf("notLinked[%q] (%s) exempts nothing any more — drop the entry", entry, reason)
		}
		if !strings.Contains(entry, ".") && reason != seam && reason != harness {
			t.Errorf("notLinked[%q] (%s) exempts a whole package — only a seam or harness package may; name its functions instead", entry, reason)
		}
	}
}

// funcName is fd's name as linkedFuncs normalises a symbol: "Func" or
// "Type.Method", pointer and type parameters dropped from the receiver.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	return typ.(*ast.Ident).Name + "." + fd.Name.Name
}

// linkedFuncs builds every main — cmd/, examples/ and benchmark/ — with
// inlining off in this module, so no call site can hide its callee, and
// returns the module-relative names of the functions the linker kept.
// Symbols are normalised to funcName's form: instantiation brackets,
// closure (.funcN) and method-value (-fm) suffixes and the (*T)
// receiver spelling are stripped.
func linkedFuncs(t *testing.T) map[string]bool {
	bin := t.TempDir()
	const noInline = "-gcflags=trainbox/...=-l"
	for _, args := range [][]string{
		{"build", noInline, "-o", bin + string(filepath.Separator), "./cmd/...", "./examples/..."},
		{"build", "-C", "benchmark", noInline, "-o", filepath.Join(bin, "benchmark"), "."},
	} {
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	closure := regexp.MustCompile(`^(func|gowrap|deferwrap)?\d+$`)
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			var sym strings.Builder
			depth := 0
			for _, r := range strings.Join(f[2:], " ") {
				switch {
				case r == '[':
					depth++
				case r == ']':
					depth--
				case depth == 0:
					sym.WriteRune(r)
				}
			}
			s, ok := strings.CutPrefix(strings.TrimSuffix(sym.String(), "-fm"), "trainbox/")
			if !ok {
				continue
			}
			slash := strings.LastIndex(s, "/")
			dot := slash + strings.Index(s[slash:], ".")
			parts := strings.Split(strings.NewReplacer("(*", "", "(", "", ")", "").Replace(s[dot+1:]), ".")
			for i, p := range parts {
				if i > 0 && closure.MatchString(p) {
					parts = parts[:i]
					break
				}
			}
			linked[s[:dot]+"."+strings.Join(parts, ".")] = true
		}
	}
	return linked
}
