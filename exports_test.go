package netdrift_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names exported names under internal/ that no program
// uses but a test needs, keyed "pkg.Func", "pkg.Var", "pkg.Type.Method" or
// "pkg.Interface.Method", with the test that needs it.
var exportAllowlist = map[string]string{
	"causal.CorrMatrix":                    "TestPartialCorrWorkspaceGolden: builds the correlation matrix the reference PartialCorr reads",
	"causal.NewCITester":                   "TestCITester and the PValue memo/workspace tests: builds a tester from rows",
	"causal.PartialCorr":                   "TestPartialCorrWorkspaceGolden: the allocating reference the workspace path must match bit for bit",
	"core.CGAN.ReconstructMC":              "TestMonteCarloM1MatchesM16: the M-sample estimator that shows the paper's M = 1 suffices",
	"dataset.ReadCSV":                      "TestCSVRoundTrip: reads back what WriteCSV (cmd/datagen) writes",
	"mat.Add":                              "TestCovariancePSDProperty: adds the ridge before the Cholesky check",
	"mat.Equal":                            "TestMul, TestSolve, TestInverse and the other mat tests: the tolerance compare",
	"mat.Mul":                              "TestSolve, TestInverse and TestCholesky: the product they verify solutions and factors with",
	"monitor.Report.TopOffenders":          "TestFeatureAttribution: ranks the drifted features; kept for the controller's decision record",
	"nn.NewTensor":                         "TestInferEvalDigestGolden, TestForwardResumeGolden and the other nn kernel tests: builds input tensors",
	"nn.ZeroGrads":                         "TestBackwardWindowGolden and the gradient tests: clears gradients between passes",
	"par.SplitRuns":                        "TestOneShardTeamSplitInvariance: proves a one-shard Fit's team split at least one kernel call",
	"scm.RandomModel":                      "TestFindVariantFeaturesFewShotPower and TestFindVariantFeaturesNoShift: random ground-truth SCMs",
	"tree.ClassificationTree.PredictProba": "TestClassificationTreeSeparable, TestTreeProbabilitiesSumToOne and TestClassificationTreeMatchesReference: the single tree's predictions",
	"tree.FitClassificationTree":           "TestClassificationTreeMatchesReference: the single tree the reference CART is compared with",
}

// TestNoUnusedInternalExports type-checks every non-test .go file of the
// tree (cmd/, examples/, bench/, the root facade and internal/) and fails
// when an exported name declared under internal/ is used by none of them:
// a package-level function, var or const, a method (keyed by its receiver
// type, so a live method of the same name on another type hides nothing),
// or an interface method. A use inside the declaration's own body does not
// count. A method also counts as used when it satisfies an interface method
// that some file calls, directly or through embedding, or one of the
// standard-library interfaces in stdInterfaces, whose callers live outside
// the tree. Such a name is code no program runs; delete it with its tests,
// or name the test that needs it in exportAllowlist.
func TestNoUnusedInternalExports(t *testing.T) {
	tr := loadTree(t)

	// Exported names declared under internal/, by object, with their keys.
	decls := map[types.Object]string{}
	var named []*types.TypeName // every package-level type of the tree
	for p, pkg := range tr.pkgs {
		internal := strings.HasPrefix(p, "netdrift/internal/")
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			tn, ok := obj.(*types.TypeName)
			if ok {
				named = append(named, tn)
			}
			if !internal {
				continue
			}
			prefix := pkg.Name() + "."
			switch obj := obj.(type) {
			case *types.Func, *types.Var, *types.Const:
				if obj.Exported() {
					decls[obj] = prefix + name
				}
			case *types.TypeName:
				n, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				var methods []*types.Func
				if it, ok := n.Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumExplicitMethods(); i++ {
						methods = append(methods, it.ExplicitMethod(i))
					}
				} else {
					for i := 0; i < n.NumMethods(); i++ {
						methods = append(methods, n.Method(i))
					}
				}
				for _, m := range methods {
					if m.Exported() {
						decls[m] = prefix + name + "." + m.Name()
					}
				}
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported names under internal/")
	}

	used := map[types.Object]bool{}
	called := map[*types.Func]bool{} // interface methods some file calls
	for id, obj := range tr.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				called[fn.Origin()] = true
			}
		}
		if body, ok := tr.bodies[obj]; ok && body.Pos() <= id.Pos() && id.Pos() < body.End() {
			continue
		}
		used[obj] = true
	}
	for _, fn := range stdInterfaces(t, tr) {
		called[fn] = true
	}

	// A method satisfies a called interface method when its type, or a type
	// that embeds it, implements that interface: the method set's entry for
	// the name is then the method itself.
	for _, tn := range named {
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 {
			continue
		}
		candidates := []types.Type{n}
		if !types.IsInterface(n) {
			candidates = append(candidates, types.NewPointer(n))
		}
		for im := range called {
			iface, ok := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for _, typ := range candidates {
				if !types.Implements(typ, iface) {
					continue
				}
				if sel := types.NewMethodSet(typ).Lookup(im.Pkg(), im.Name()); sel != nil {
					used[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	keys := map[string]bool{}
	var unused []string
	for obj, key := range decls {
		keys[key] = true
		_, allowed := exportAllowlist[key]
		switch {
		case used[obj] && allowed:
			t.Errorf("%s is reached by a program now; drop it from exportAllowlist", key)
		case !used[obj] && !allowed:
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	for _, k := range unused {
		t.Errorf("%s is exported but no program uses it: delete it, or allowlist it with the test that needs it", k)
	}
	for key := range exportAllowlist {
		if !keys[key] {
			t.Errorf("exportAllowlist names %s, which no longer exists", key)
		}
	}
}

// stdInterfaces returns the methods of the standard-library interfaces whose
// calls happen outside the tree: fmt's printing, errors, the HTTP server,
// encoding/json, io copies and math/rand.
func stdInterfaces(t *testing.T, tr *tree) []*types.Func {
	ifaces := []types.Type{types.Universe.Lookup("error").Type()}
	for _, qn := range []string{
		"fmt.Stringer", "net/http.Handler", "encoding/json.Marshaler",
		"encoding/json.Unmarshaler", "io.Reader", "io.Writer", "math/rand.Source",
	} {
		i := strings.LastIndex(qn, ".")
		pkg, err := tr.std.Import(qn[:i])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(qn[i+1:]).Type())
	}
	var fns []*types.Func
	for _, typ := range ifaces {
		it := typ.Underlying().(*types.Interface)
		for i := 0; i < it.NumMethods(); i++ {
			fns = append(fns, it.Method(i))
		}
	}
	return fns
}

// tree is the type-checked set of the repository's non-test packages, keyed
// by import path. Both modules map a directory to "netdrift/<dir>", so
// bench/ (module netdrift/bench) sits beside the root module's packages.
type tree struct {
	fset   *token.FileSet
	files  map[string][]*ast.File
	pkgs   map[string]*types.Package
	info   *types.Info
	bodies map[types.Object]*ast.FuncDecl // each declared function's own declaration
	std    types.Importer
}

func loadTree(t *testing.T) *tree {
	tr := &tree{
		fset:   token.NewFileSet(),
		files:  map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		bodies: map[types.Object]*ast.FuncDecl{},
		std:    importer.Default(),
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(p)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(tr.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := "netdrift"
		if d := filepath.ToSlash(filepath.Clean(dir)); d != "." {
			ip = path.Join(ip, d)
		}
		tr.files[ip] = append(tr.files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range tr.files {
		if _, err := tr.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, files := range tr.files {
		for _, f := range files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					tr.bodies[tr.info.Defs[fd.Name]] = fd
				}
			}
		}
	}
	return tr
}

// Import type-checks a package of the tree from source, once, and hands
// every other import path to the standard library's export data.
func (tr *tree) Import(p string) (*types.Package, error) {
	files, ok := tr.files[p]
	if !ok {
		return tr.std.Import(p)
	}
	if pkg, ok := tr.pkgs[p]; ok {
		return pkg, nil
	}
	conf := types.Config{Importer: tr}
	pkg, err := conf.Check(p, tr.fset, files, tr.info)
	if err != nil {
		return nil, err
	}
	tr.pkgs[p] = pkg
	return pkg, nil
}
