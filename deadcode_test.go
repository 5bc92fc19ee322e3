// Dead-export scan: every exported function, method and type in internal/
// must be referenced by code that ships, not only by tests. Test-only API
// is deleted rather than kept "in case"; the few names tests use as a
// reference for a paper claim sit on deadExportAllowlist with the claim
// and the test that checks it.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedExport is one exported name only tests reach, kept because a
// test checks a paper claim through it or compares against it.
type allowedExport struct {
	claim string // the paper section or claim
	test  string // the test function that checks it
}

// deadExportAllowlist is keyed by package (relative to repro/internal),
// receiver type for methods, and name: "mem.SRAM.FlipBit", "hac.SystemSync".
var deadExportAllowlist = map[string]allowedExport{
	"compiler.MatmulSplit.BuildGraph": {
		"§5.2: only row splits put partial products on the network; they reduce within a group",
		"TestMatmulBuildGraph"},
	"compiler.MatmulSplit.GroupedTSPMapping": {
		"§5.2: a group's row-split devices share a node, so its reduction rides local links",
		"TestGroupedTSPMapping"},
	"fabric.NewAdaptive": {
		"Fig 8, §4.3: adaptive routing reorders a flow's vectors; SSN never does",
		"TestAdaptiveReordersSSNDoesNot"},
	"fabric.Adaptive.Inject": {
		"Fig 8, §4.3: adaptive routing reorders a flow's vectors; SSN never does",
		"TestAdaptiveReordersSSNDoesNot"},
	"fabric.Adaptive.Run": {
		"Fig 8, §4.3: adaptive routing reorders a flow's vectors; SSN never does",
		"TestAdaptiveReordersSSNDoesNot"},
	"fabric.ReorderCount": {
		"Fig 8, §4.3: adaptive routing reorders a flow's vectors; SSN never does",
		"TestAdaptiveReordersSSNDoesNot"},
	"hac.InitialAlignment": {
		"§3.3, Fig 7b: parent and child start computing within link jitter of each other",
		"TestInitialAlignmentTwoChips"},
	"hac.RuntimeDeskew": {
		"§3.3: RUNTIME_DESKEW re-aligns chips whose clocks drifted during a program",
		"TestRuntimeDeskewRealigns"},
	"hac.BackgroundExchange": {
		"§3.1: the continuous HAC exchange keeps every counter tracking the root",
		"TestRuntimeDeskewRealigns"},
	"hac.BuildChain": {
		"§3.2: alignment converges hop by hop along a multi-hop spanning tree",
		"TestChainAlignment"},
	"hac.SystemSync": {
		"§3.2: cold bring-up aligns every HAC of a rack-scale system",
		"TestSystemSyncRackScale"},
	"mem.AddrOf": {
		"Fig 3: [hemisphere, slice, bank, offset] addresses each of a chip's vectors exactly once",
		"TestAddrLinearRoundTrip"},
	"mem.SRAM.FlipBit": {
		"§4.5: SECDED corrects single-bit SRAM upsets and detects double-bit ones",
		"TestSECDEDCorrectsAndScrubs"},
	"runtime.ExecuteSchedule": {
		"§4.3: a compile-time SSN schedule, lowered to per-chip programs, delivers every vector intact",
		"TestScheduleLoweringEndToEnd"},
	"runtime.ChipHandle.SetStream": {
		"§4.3: a compile-time SSN schedule, lowered to per-chip programs, delivers every vector intact",
		"TestScheduleLoweringEndToEnd"},
	"stats.Histogram.Quantile": {
		"Fig 17: \"99% of inferences return in under 1225 µs\" is a histogram quantile",
		"TestHistogramQuantile"},
	"topo.System.ChannelLoads": {
		"Fig 2: the closed-form bandwidth profile agrees with exact channel-load analysis",
		"TestClosedFormMatchesChannelLoads"},
	"tsp.Chip.SetDeskewDelta": {
		"§3.3: RUNTIME_DESKEW stalls for its target plus the chip's drift",
		"TestRuntimeDeskewUsesDelta"},
	"workloads.FunctionalVectorMatrix": {
		"§5: the LSTM vector-matrix primitive runs on the MXM and matches a float64 reference",
		"TestFunctionalVectorMatrixRandomAgainstReference"},
	"workloads.LSTMConfig": {
		"§5: an LSTM's recurrence serializes its steps",
		"TestLSTMStepLatency"},
	"workloads.LSTMConfig.SequenceCycles": {
		"§5: an LSTM's recurrence serializes its steps",
		"TestLSTMStepLatency"},
	"workloads.LSTMConfig.TokensPerSecond": {
		"§5: single-token LSTM decode is latency-bound",
		"TestLSTMStepLatency"},
	"workloads.PipelineSteadyState": {
		"§4.4: the triple-connected ring beats full connectivity for pipelined inference",
		"TestSec44RingWinsSteadyState"},
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// goList lists the packages of the module rooted at dir, with the file
// sets the build constraints select for goarch.
func goList(t *testing.T, dir, goarch string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOARCH="+goarch)
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// repoChecker type-checks the repository's packages from source. Imports
// of repository packages resolve to the package it already checked, so
// every reference to a declaration lands on the same types.Object; the
// standard library comes from the source importer.
type repoChecker struct {
	fset    *token.FileSet
	std     types.Importer
	listed  map[string]listedPackage
	checked map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info // shared by every repository package
}

func (c *repoChecker) Import(path string) (*types.Package, error) {
	if _, ok := c.listed[path]; !ok {
		return c.std.Import(path)
	}
	return c.check(path)
}

func (c *repoChecker) check(path string) (*types.Package, error) {
	if p, ok := c.checked[path]; ok {
		return p, nil
	}
	lp := c.listed[path]
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	c.checked[path] = p
	c.files[path] = files
	return p, nil
}

// recvNamed is the named type method m is declared on.
func recvNamed(m *types.Func) *types.Named {
	t := m.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

// satisfiesInterface reports whether m's receiver type implements one of
// ifaces that has a method named like m: such a method is reached through
// the interface, where no reference to it appears.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	named := recvNamed(m)
	for _, iface := range ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == m.Name() &&
				(types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface)) {
				return true
			}
		}
	}
	return false
}

// ciArches are the GOARCHes CI builds the module for: amd64 runs the
// suite, 386 runs it on the portable kernels, and arm64 and s390x are
// vetted and built. A name non-test code reaches under any of them is
// live: the amd64-only kernel selection is the only caller of the CPUID
// feature tests, and no 386 file calls them.
var ciArches = []string{"amd64", "386", "arm64", "s390x"}

// archScan is what one GOARCH's file sets declare and reach.
type archScan struct {
	decls   map[string]token.Position // exported internal/ declarations, by key
	reached map[string]bool           // keys shipping code reaches, or an interface exempts
	tests   map[string]bool           // test function names
}

// TestNoTestOnlyExports fails when an exported function, method or type in
// internal/ is referenced only by _test.go files (or not at all) under
// every GOARCH in ciArches. Roots are everything that ships: the
// commands, the examples, the public tsm package, the benchmark program,
// and internal code itself. A reference from inside a declaration's own
// body does not count. A method is exempt when its receiver type
// implements an interface that has the method (String, Error,
// heap.Interface, the chip-to-chip link interface).
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	decls := map[string]token.Position{}
	reached := map[string]bool{}
	tests := map[string]bool{}
	for _, goarch := range ciArches {
		sc := scanArch(t, goarch, fset, std)
		for k, pos := range sc.decls {
			if _, ok := decls[k]; !ok {
				decls[k] = pos
			}
		}
		for k := range sc.reached {
			reached[k] = true
		}
		for k := range sc.tests {
			tests[k] = true
		}
	}

	var dead []string
	for key, pos := range decls {
		_, allowed := deadExportAllowlist[key]
		if reached[key] {
			if allowed {
				t.Errorf("%s is on the allowlist but shipping code uses it; drop the entry", key)
			}
			continue
		}
		if !allowed {
			dead = append(dead, fmt.Sprintf("%s (%s)", key, pos))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported %s is reached only from tests: delete it, or allowlist it with the paper claim a test checks through it", d)
	}
	for key, a := range deadExportAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s names no exported declaration", key)
		}
		if a.claim == "" || !tests[a.test] {
			t.Errorf("allowlist entry %s must name a paper claim and an existing test, got %+v", key, a)
		}
	}
}

// scanArch type-checks the repository's packages with the files goarch
// builds and reports their exported internal/ declarations and which of
// them shipping code reaches.
func scanArch(t *testing.T, goarch string, fset *token.FileSet, std types.Importer) archScan {
	t.Helper()
	listed := map[string]listedPackage{}
	var paths []string
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir, goarch) {
			listed[p.ImportPath] = p
			paths = append(paths, p.ImportPath)
		}
	}
	c := &repoChecker{
		fset:    fset,
		std:     std,
		listed:  listed,
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		},
	}
	for _, path := range paths {
		if _, err := c.check(path); err != nil {
			t.Fatalf("GOARCH=%s: %v", goarch, err)
		}
	}
	// Declarations in internal/ and the source range of each, so a
	// reference from inside its own body can be discounted. A method's
	// receiver does not count as a use of its type either.
	type decl struct {
		key      string
		obj      types.Object
		from, to token.Pos
	}
	var decls []decl
	declOf := map[types.Object]int{}
	inReceiver := map[*ast.Ident]bool{}
	for _, path := range paths {
		rel, ok := strings.CutPrefix(path, "repro/internal/")
		if !ok {
			continue
		}
		add := func(name *ast.Ident, from, to token.Pos) {
			if !name.IsExported() {
				return
			}
			obj := c.info.Defs[name]
			key := rel + "." + name.Name
			if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
				key = rel + "." + recvNamed(fn).Obj().Name() + "." + name.Name
			}
			declOf[obj] = len(decls)
			decls = append(decls, decl{key, obj, from, to})
		}
		for _, f := range c.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					add(d.Name, d.Pos(), d.End())
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								inReceiver[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							add(ts.Name, ts.Pos(), ts.End())
						}
					}
				}
			}
		}
	}

	used := make([]bool, len(decls))
	for id, obj := range c.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.TypeName:
			if inReceiver[id] {
				continue
			}
			if n, ok := o.Type().(*types.Named); ok {
				obj = n.Origin().Obj()
			}
		}
		i, ok := declOf[obj]
		if !ok {
			continue
		}
		if d := decls[i]; id.Pos() >= d.from && id.Pos() < d.to {
			continue
		}
		used[i] = true
	}

	// Interfaces a method may be reached through: every package-level
	// interface type of the repository and of the packages it imports,
	// plus error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	addIfaces := func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					ifaces = append(ifaces, iface)
				}
			}
		}
	}
	for _, path := range paths {
		p := c.checked[path]
		addIfaces(p)
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}

	// Test function names, so every allowlist entry can name a real test.
	tests := map[string]bool{}
	for _, path := range paths {
		lp := listed[path]
		for _, name := range append(append([]string{}, lp.TestGoFiles...), lp.XTestGoFiles...) {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
					tests[fd.Name.Name] = true
				}
			}
		}
	}

	sc := archScan{decls: map[string]token.Position{}, reached: map[string]bool{}, tests: tests}
	for i, d := range decls {
		sc.decls[d.key] = fset.Position(d.from)
		if used[i] {
			sc.reached[d.key] = true
		} else if fn, ok := d.obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn, ifaces) {
			sc.reached[d.key] = true
		}
	}
	return sc
}

// TestNoGlobalRecorder fails when a .go file of the module calls obs.Set
// or obs.Get: every component records into the recorder its owner hands
// it. The one exception is the shim in runtime.New that hands the global
// to the new cluster, kept for bench/tspbench (its own module, not
// scanned here) until ROADMAP item 8a deletes it.
func TestNoGlobalRecorder(t *testing.T) {
	shim := filepath.Join("internal", "runtime", "runtime.go")
	shims := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		obsName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/obs" {
				obsName = "obs"
				if imp.Name != nil {
					obsName = imp.Name.Name
				}
			}
		}
		if obsName == "" {
			return nil
		}
		for _, decl := range f.Decls {
			ast.Inspect(decl, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Set" && sel.Sel.Name != "Get") {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); !ok || x.Name != obsName {
					return true
				}
				if fn, ok := decl.(*ast.FuncDecl); ok && path == shim && fn.Recv == nil && fn.Name.Name == "New" && sel.Sel.Name == "Get" {
					shims++
					return true
				}
				t.Errorf("%s: obs.%s reads or installs the process-global recorder; pass the recorder from its owner instead",
					fset.Position(call.Pos()), sel.Sel.Name)
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if shims > 1 {
		t.Errorf("runtime.New reads the global recorder %d times; the bench shim is one read", shims)
	}
}
